//! The long-lived streaming campaign service — the one way to run a
//! session of campaigns.
//!
//! [`CampaignService`] is a persistent worker pool fed by a bounded
//! submission queue. Campaigns can be submitted at any time; each
//! submission returns a [`CampaignHandle`] that streams one
//! [`RunEvent::Record`] per production run *as it completes*, followed
//! by a terminal [`RunEvent::Finished`] carrying the
//! [`CampaignOutcome`]. That is the shape cross-run learning wants in
//! production: per-run observations leave the VM while the campaign is
//! still running, instead of arriving as a batch figure afterwards.
//! Batch callers submit everything up front and
//! [`wait`](CampaignHandle::wait) on the handles in order.
//!
//! Contracts, all under test in `tests/service.rs`:
//!
//! - **Determinism** — submissions sharing a `model_key` (with a store
//!   attached) serialize in submission order through per-key lanes;
//!   oracles are shared by bench *content*, one memoized
//!   [`DefaultOracle`] per (bench, sampling interval). A service-driven
//!   session is bit-identical to running the same campaigns one after
//!   another with [`Campaign::run_with_sink`], at any pool width.
//! - **Backpressure** — at most `queue_bound` campaigns may be queued
//!   (ready or parked); further submissions block until the pool drains.
//! - **Panic containment** — a panicking campaign reports
//!   [`EvolveError::CampaignPanicked`] on its own handle; the worker
//!   and the rest of the pool keep serving.
//! - **Graceful shutdown** — [`ShutdownMode::Drain`] completes every
//!   queued campaign first; [`ShutdownMode::Abort`] cancels queued
//!   campaigns (terminal [`EvolveError::CampaignCancelled`] on their
//!   handles) and only lets in-flight ones finish.
//!
//! Internals use `std::sync` primitives directly rather than the
//! `parking_lot` shim: the queue needs condition variables, which the
//! shim does not model.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use crate::app::Bench;
use crate::campaign::{Campaign, CampaignConfig, CampaignOutcome, RunRecord, RunSink, Scenario};
use crate::error::EvolveError;
use crate::fork::{ForkExecutor, ForkPoint, ForkSample};
use crate::metrics::{ServiceMetrics, ServiceMetricsSnapshot};
use crate::oracle::DefaultOracle;
use crate::scheduler::{KeyLanes, OracleCache};
use crate::store::ModelStore;

/// One event on a submission's [`CampaignHandle`].
#[derive(Debug)]
pub enum RunEvent {
    /// A production run completed; streamed in run order while the
    /// campaign is still executing.
    Record(RunRecord),
    /// A counterfactual sample from one of this submission's fork
    /// replays (campaigns configured with
    /// [`CampaignConfig::fork_snapshots`] only). Fork replays execute as
    /// ordinary jobs on the worker pool, so samples may interleave with
    /// later [`RunEvent::Record`]s — but never follow
    /// [`RunEvent::Finished`].
    ForkSample(ForkSample),
    /// The campaign finished (or failed, was cancelled, or panicked).
    /// Always the last event on a handle — a forking campaign's terminal
    /// is parked until its last fork replay resolves.
    Finished(Result<CampaignOutcome, EvolveError>),
}

/// How [`CampaignService::shutdown`] treats campaigns that have not
/// started yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Complete every queued campaign before the pool exits.
    Drain,
    /// Cancel queued campaigns ([`EvolveError::CampaignCancelled`] on
    /// their handles); in-flight campaigns still run to completion.
    Abort,
}

/// Test-only fault injection accepted by
/// [`CampaignService::submit_probe`].
#[doc(hidden)]
#[derive(Debug)]
pub enum Probe {
    /// Panic on the worker — exercises panic containment.
    Panic,
    /// Block the worker until the test sends on (or drops) the paired
    /// sender — makes queueing, backpressure, and shutdown tests
    /// deterministic.
    Gate(mpsc::Receiver<()>),
}

/// What a queued job executes.
#[derive(Debug)]
enum Payload {
    Campaign {
        bench: Arc<Bench>,
        config: CampaignConfig,
        oracle: Arc<DefaultOracle>,
        /// Present when the campaign forks (`fork_snapshots > 0`):
        /// parks the terminal event until every spawned fork job
        /// resolves.
        rendezvous: Option<Arc<ForkRendezvous>>,
    },
    /// One fork-point replay, spawned internally by a forking campaign's
    /// worker. Fork jobs are ordinary queue units: they inherit the
    /// parent's model key (serializing behind same-key work through
    /// [`KeyLanes`]) and its event channel.
    Fork {
        point: Box<ForkPoint>,
        rendezvous: Arc<ForkRendezvous>,
        key: Option<String>,
    },
    Probe(Probe),
}

/// One queued submission.
#[derive(Debug)]
struct Job {
    spec_index: usize,
    payload: Payload,
    events: mpsc::Sender<RunEvent>,
}

impl Job {
    /// The model key that serializes this job, if any (only campaigns
    /// carry keys, and only when the service has a store to couple
    /// them through).
    fn key(&self, store_attached: bool) -> Option<String> {
        match &self.payload {
            Payload::Campaign { config, .. } if store_attached => config.model_key.clone(),
            // Fork jobs carry the key their parent computed (already
            // gated on store attachment at spawn time).
            Payload::Fork { key, .. } => key.clone(),
            _ => None,
        }
    }
}

/// Terminal-event rendezvous for a forking campaign.
///
/// [`RunEvent::Finished`] must stay the last event on a handle, but fork
/// jobs outlive their campaign on the queue. The campaign's terminal
/// result parks here until the last outstanding fork job resolves
/// (completes or is cancelled by an abort shutdown), at which point
/// whoever resolved it delivers the parked event.
#[derive(Debug, Default)]
struct ForkRendezvous {
    state: Mutex<RendezvousState>,
}

#[derive(Debug, Default)]
struct RendezvousState {
    /// Fork jobs spawned but not yet resolved.
    outstanding: usize,
    /// The campaign's terminal result, parked while forks are
    /// outstanding.
    terminal: Option<Result<CampaignOutcome, EvolveError>>,
}

impl ForkRendezvous {
    fn lock(&self) -> MutexGuard<'_, RendezvousState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Count one spawned fork job.
    fn spawn(&self) {
        self.lock().outstanding += 1;
    }

    /// Deliver the campaign's terminal event now, or park it until the
    /// last fork resolves.
    fn settle_campaign(
        &self,
        events: &mpsc::Sender<RunEvent>,
        result: Result<CampaignOutcome, EvolveError>,
    ) {
        let mut state = self.lock();
        if state.outstanding == 0 {
            drop(state);
            let _ = events.send(RunEvent::Finished(result));
        } else {
            state.terminal = Some(result);
        }
    }

    /// Resolve one fork job; the last one out delivers the parked
    /// terminal (if the campaign has already settled).
    fn resolve_fork(&self, events: &mpsc::Sender<RunEvent>) {
        let mut state = self.lock();
        state.outstanding -= 1;
        if state.outstanding == 0 {
            if let Some(result) = state.terminal.take() {
                drop(state);
                let _ = events.send(RunEvent::Finished(result));
            }
        }
    }
}

/// The queue state machine, guarded by one mutex.
#[derive(Debug)]
struct QueueState {
    /// Jobs ready to execute, FIFO.
    ready: VecDeque<Job>,
    /// Model-key serialization lanes holding parked jobs.
    lanes: KeyLanes<Job>,
    /// Jobs parked in `lanes` (cached count).
    parked: usize,
    /// Jobs queued overall: `ready.len() + parked`. Backpressure bounds
    /// this.
    queued: usize,
    /// Jobs currently executing on workers.
    in_flight: usize,
    /// Set once by [`CampaignService::shutdown`]; never cleared.
    shutdown: Option<ShutdownMode>,
}

/// Everything the workers and the submitter share.
#[derive(Debug)]
struct Shared {
    state: Mutex<QueueState>,
    /// Signals workers: a job became ready, or state worth re-checking
    /// (shutdown, drained) changed.
    not_empty: Condvar,
    /// Signals blocked submitters: queue capacity freed (or shutdown).
    not_full: Condvar,
    queue_bound: usize,
    store: Option<Arc<dyn ModelStore>>,
    metrics: ServiceMetrics,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        // Worker panics are contained inside `catch_unwind`, so the
        // mutex cannot be poisoned mid-update; absorb poisoning anyway
        // (mirrors the parking_lot semantics used elsewhere).
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish the queue gauges from the current state (call with the
    /// lock held so the gauges track the state machine exactly).
    fn publish_gauges(&self, state: &QueueState) {
        self.metrics.set_queue_depth(state.queued as u64);
        self.metrics.set_in_flight(state.in_flight as u64);
    }
}

/// Configures and spawns a [`CampaignService`].
#[derive(Debug, Default)]
pub struct CampaignServiceBuilder {
    workers: Option<usize>,
    queue_bound: Option<usize>,
    store: Option<Arc<dyn ModelStore>>,
}

impl CampaignServiceBuilder {
    /// Set the worker-pool width (`0` is treated as `1`); defaults to
    /// the available parallelism.
    pub fn workers(mut self, workers: usize) -> CampaignServiceBuilder {
        self.workers = Some(workers.max(1));
        self
    }

    /// Set the submission-queue bound (`0` is treated as `1`); defaults
    /// to 256. Submissions beyond the bound block until capacity frees.
    pub fn queue_bound(mut self, bound: usize) -> CampaignServiceBuilder {
        self.queue_bound = Some(bound.max(1));
        self
    }

    /// Attach a model store; campaigns whose config names a `model_key`
    /// restore state from it before running, persist state after, and
    /// serialize against same-key submissions.
    pub fn store(mut self, store: Arc<dyn ModelStore>) -> CampaignServiceBuilder {
        self.store = Some(store);
        self
    }

    /// Spawn the worker pool and return the running service.
    pub fn spawn(self) -> CampaignService {
        let workers = self.workers.unwrap_or_else(|| {
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                ready: VecDeque::new(),
                lanes: KeyLanes::new(),
                parked: 0,
                queued: 0,
                in_flight: 0,
                shutdown: None,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            queue_bound: self.queue_bound.unwrap_or(256),
            store: self.store,
            metrics: ServiceMetrics::for_workers(workers),
        });
        let threads = (0..workers)
            .map(|worker_index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("evovm-service-{worker_index}"))
                    .spawn(move || worker_loop(&shared, worker_index))
                    .expect("spawn service worker")
            })
            .collect();
        CampaignService {
            shared,
            oracles: OracleCache::new(),
            workers: threads,
            next_index: AtomicUsize::new(0),
        }
    }
}

/// A long-lived streaming campaign service: a persistent worker pool
/// accepting [`CampaignConfig`] submissions at any time and streaming
/// incremental per-run records back on per-submission handles. See the
/// [module docs](self) for the contracts.
#[derive(Debug)]
pub struct CampaignService {
    shared: Arc<Shared>,
    oracles: OracleCache,
    workers: Vec<thread::JoinHandle<()>>,
    next_index: AtomicUsize,
}

impl CampaignService {
    /// Start configuring a service.
    pub fn builder() -> CampaignServiceBuilder {
        CampaignServiceBuilder::default()
    }

    /// The worker-pool width.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// A point-in-time copy of the service's activity counters.
    pub fn metrics(&self) -> ServiceMetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Submit one campaign. Returns a handle streaming the campaign's
    /// per-run records and final outcome. Blocks while the queue is at
    /// its bound.
    ///
    /// The campaign shares its baseline oracle with every other
    /// submission of the same bench content, and serializes behind
    /// earlier unfinished submissions naming the same `model_key` (when
    /// a store is attached).
    ///
    /// # Errors
    ///
    /// [`EvolveError::ServiceStopped`] when the service is shutting
    /// down (including while blocked on backpressure).
    pub fn submit(
        &self,
        bench: Arc<Bench>,
        config: CampaignConfig,
    ) -> Result<CampaignHandle, EvolveError> {
        let oracle = self
            .oracles
            .oracle_for(&bench, config.evolve.sample_interval_cycles);
        let rendezvous = (config.fork_snapshots > 0).then(|| Arc::new(ForkRendezvous::default()));
        self.enqueue(Payload::Campaign {
            bench,
            config,
            oracle,
            rendezvous,
        })
    }

    /// Test-only fault injection: submit a [`Probe`] job instead of a
    /// campaign. Probes flow through the same queue, containment, and
    /// completion paths as real campaigns, which is the point — they
    /// make panic-containment and queueing tests deterministic without
    /// touching campaign semantics.
    ///
    /// # Errors
    ///
    /// [`EvolveError::ServiceStopped`] when the service is shutting
    /// down.
    #[doc(hidden)]
    pub fn submit_probe(&self, probe: Probe) -> Result<CampaignHandle, EvolveError> {
        self.enqueue(Payload::Probe(probe))
    }

    fn enqueue(&self, payload: Payload) -> Result<CampaignHandle, EvolveError> {
        let (events, handle_events) = mpsc::channel();
        let spec_index = self.next_index.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            spec_index,
            payload,
            events,
        };
        let shared = &self.shared;
        let mut state = shared.lock();
        loop {
            if state.shutdown.is_some() {
                return Err(EvolveError::ServiceStopped);
            }
            if state.queued < shared.queue_bound {
                break;
            }
            state = shared
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.queued += 1;
        shared.metrics.record_submit();
        let key = job.key(shared.store.is_some());
        match state.lanes.admit(key.as_deref(), job) {
            Some(job) => {
                state.ready.push_back(job);
                shared.not_empty.notify_one();
            }
            None => state.parked += 1,
        }
        shared.publish_gauges(&state);
        drop(state);
        Ok(CampaignHandle {
            spec_index,
            events: handle_events,
        })
    }

    /// Begin shutting down without blocking: reject new submissions
    /// (including submitters currently blocked on backpressure, which
    /// wake with [`EvolveError::ServiceStopped`]) and handle queued
    /// campaigns according to `mode`. The first mode signalled wins;
    /// later calls are no-ops. Workers are not joined — follow up with
    /// [`CampaignService::shutdown`] (or drop the service) to wait for
    /// them.
    pub fn begin_shutdown(&self, mode: ShutdownMode) {
        signal_shutdown(&self.shared, mode);
    }

    /// Stop the service: reject new submissions, handle queued
    /// campaigns according to `mode` (the first mode signalled wins if
    /// [`CampaignService::begin_shutdown`] already ran), wait for the
    /// workers to exit, and join them. In-flight campaigns always run
    /// to completion.
    pub fn shutdown(mut self, mode: ShutdownMode) {
        self.shutdown_inner(mode);
    }

    fn shutdown_inner(&mut self, mode: ShutdownMode) {
        if self.workers.is_empty() {
            return; // already shut down
        }
        signal_shutdown(&self.shared, mode);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for CampaignService {
    /// Dropping without an explicit [`CampaignService::shutdown`]
    /// aborts: queued campaigns are cancelled rather than silently
    /// blocking the drop for an unbounded drain.
    fn drop(&mut self) {
        self.shutdown_inner(ShutdownMode::Abort);
    }
}

/// The receiving side of one submission: an event stream yielding every
/// per-run [`RunEvent::Record`] in run order, then exactly one
/// [`RunEvent::Finished`].
#[derive(Debug)]
pub struct CampaignHandle {
    spec_index: usize,
    events: mpsc::Receiver<RunEvent>,
}

impl CampaignHandle {
    /// This submission's index (assigned in submission order, starting
    /// at 0 for a fresh service). [`EvolveError::CampaignPanicked`]
    /// reports it back as `spec_index`.
    pub fn spec_index(&self) -> usize {
        self.spec_index
    }

    /// Receive the next event, blocking until one is available. `None`
    /// once the stream is exhausted (after [`RunEvent::Finished`] has
    /// been consumed).
    pub fn next_event(&self) -> Option<RunEvent> {
        self.events.recv().ok()
    }

    /// Receive the next event without blocking; `None` when nothing is
    /// pending right now (or the stream is exhausted).
    pub fn try_next_event(&self) -> Option<RunEvent> {
        self.events.try_recv().ok()
    }

    /// Block until the campaign finishes, discarding streamed records,
    /// and return the final outcome — the batch-shaped way to consume a
    /// handle.
    ///
    /// # Errors
    ///
    /// Whatever terminal error the campaign produced — including
    /// [`EvolveError::CampaignPanicked`] and
    /// [`EvolveError::CampaignCancelled`] — or
    /// [`EvolveError::ServiceStopped`] if the stream ended without a
    /// terminal event (the service was torn down around it).
    pub fn wait(self) -> Result<CampaignOutcome, EvolveError> {
        loop {
            match self.next_event() {
                Some(RunEvent::Finished(result)) => return result,
                Some(RunEvent::Record(_) | RunEvent::ForkSample(_)) => continue,
                None => return Err(EvolveError::ServiceStopped),
            }
        }
    }
}

/// Flip the shared state into shutdown. The first mode recorded wins;
/// an effective [`ShutdownMode::Abort`] cancels everything queued
/// (ready jobs and parked same-key followers alike get a terminal
/// event now, so their handles resolve before the pool winds down —
/// busy-lane markers stay for in-flight jobs). Both condvars are
/// notified so idle workers and backpressure-blocked submitters
/// re-check.
fn signal_shutdown(shared: &Shared, mode: ShutdownMode) {
    let mut state = shared.lock();
    let effective = *state.shutdown.get_or_insert(mode);
    if effective == ShutdownMode::Abort {
        let mut cancelled: Vec<Job> = state.ready.drain(..).collect();
        cancelled.extend(state.lanes.drain_parked());
        state.parked = 0;
        state.queued = 0;
        shared.publish_gauges(&state);
        drop(state);
        for job in cancelled {
            match &job.payload {
                // Cancelled fork jobs send no terminal of their own —
                // resolving the rendezvous lets the parent's parked
                // terminal (if any) go out instead.
                Payload::Fork { rendezvous, .. } => {
                    shared.metrics.record_fork_cancelled();
                    rendezvous.resolve_fork(&job.events);
                }
                _ => {
                    shared.metrics.record_cancelled();
                    let _ = job
                        .events
                        .send(RunEvent::Finished(Err(EvolveError::CampaignCancelled)));
                }
            }
        }
    } else {
        drop(state);
    }
    shared.not_empty.notify_all();
    shared.not_full.notify_all();
}

/// One worker thread: take ready jobs, execute them with panic
/// containment, stream events, advance model-key lanes, repeat until
/// shutdown.
fn worker_loop(shared: &Shared, worker_index: usize) {
    loop {
        let job = {
            let mut state = shared.lock();
            loop {
                if let Some(job) = state.ready.pop_front() {
                    state.queued -= 1;
                    state.in_flight += 1;
                    shared.publish_gauges(&state);
                    shared.not_full.notify_one();
                    break job;
                }
                match state.shutdown {
                    // Abort: the shutdown call already cancelled queued
                    // jobs; nothing left for this worker.
                    Some(ShutdownMode::Abort) => return,
                    // Drain: exit only when nothing can become ready
                    // anymore — no parked followers and no in-flight
                    // predecessor to release them.
                    Some(ShutdownMode::Drain) if state.parked == 0 && state.in_flight == 0 => {
                        return;
                    }
                    _ => {
                        state = shared
                            .not_empty
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };

        let key = job.key(shared.store.is_some());
        let completion = run_contained(&job, shared);

        // Finish the bookkeeping *before* delivering the terminal
        // event: once a handle observes `Finished`, the metrics must
        // already count this campaign as completed.
        let mut state = shared.lock();
        state.in_flight -= 1;
        if let Some(released) = state.lanes.release(key.as_deref()) {
            // The follower was already counted in `queued`; it merely
            // moves from parked to ready.
            state.parked -= 1;
            state.ready.push_back(released);
        }
        match &completion {
            Completion::Terminal { .. } => shared.metrics.record_completed(worker_index),
            Completion::Fork { .. } => shared.metrics.record_fork_completed(),
        }
        shared.publish_gauges(&state);
        drop(state);
        // A dropped handle is fine — the campaign's effects (store
        // writes, metrics) stand regardless of whether anyone listens.
        match completion {
            Completion::Terminal {
                result,
                rendezvous: Some(rendezvous),
            } => rendezvous.settle_campaign(&job.events, result),
            Completion::Terminal {
                result,
                rendezvous: None,
            } => {
                let _ = job.events.send(RunEvent::Finished(result));
            }
            Completion::Fork { rendezvous } => rendezvous.resolve_fork(&job.events),
        }
        // Wake everyone: a follower may have become ready, and during a
        // drain other workers must re-check the exit condition.
        shared.not_empty.notify_all();
    }
}

/// What executing one job yields for the delivery stage of
/// [`worker_loop`].
enum Completion {
    /// A campaign or probe produced its terminal result; deliver it
    /// directly, or through the rendezvous when the campaign forked.
    Terminal {
        result: Result<CampaignOutcome, EvolveError>,
        rendezvous: Option<Arc<ForkRendezvous>>,
    },
    /// A fork replay resolved (its samples were already streamed).
    Fork { rendezvous: Arc<ForkRendezvous> },
}

/// The worker-side sink of a *forking* campaign: streams records like
/// the plain closure sink, but consumes fork points and reroutes them
/// into the queue as ordinary [`Payload::Fork`] jobs instead of
/// replaying them inline on the campaign's own worker.
struct ServiceSink<'a> {
    shared: &'a Shared,
    events: mpsc::Sender<RunEvent>,
    rendezvous: Arc<ForkRendezvous>,
    key: Option<String>,
    spec_index: usize,
}

impl RunSink for ServiceSink<'_> {
    fn on_record(&mut self, record: &RunRecord) {
        let _ = self.events.send(RunEvent::Record(record.clone()));
    }

    fn on_fork_point(&mut self, point: ForkPoint) -> Option<ForkPoint> {
        let job = Job {
            spec_index: self.spec_index,
            payload: Payload::Fork {
                point: Box::new(point),
                rendezvous: Arc::clone(&self.rendezvous),
                key: self.key.clone(),
            },
            events: self.events.clone(),
        };
        let mut state = self.shared.lock();
        // Fork spawns race shutdown: once an abort is signalled the
        // queue has already been cancelled, so a late fork must not
        // enter it (nothing would cancel it again).
        if state.shutdown == Some(ShutdownMode::Abort) {
            self.shared.metrics.record_fork_cancelled();
            return None;
        }
        // Forks bypass the queue bound deliberately: the spawning worker
        // cannot block on backpressure while it occupies the pool (that
        // would deadlock a single-worker service), and the per-run fork
        // budget bounds the overshoot.
        self.rendezvous.spawn();
        state.queued += 1;
        self.shared.metrics.record_fork_spawned();
        let key = job.key(self.shared.store.is_some());
        match state.lanes.admit(key.as_deref(), job) {
            Some(job) => {
                state.ready.push_back(job);
                self.shared.not_empty.notify_one();
            }
            // The parent campaign holds the lane busy while it runs, so
            // keyed forks park and execute after it — serialized per
            // model key, like any other same-key work.
            None => state.parked += 1,
        }
        self.shared.publish_gauges(&state);
        None
    }
}

/// Execute one job with panic containment: a panic anywhere inside the
/// campaign (VM, optimizer, store, sink) becomes
/// [`EvolveError::CampaignPanicked`] instead of unwinding the worker.
/// Fork replays are contained the same way; a failing or panicking
/// replay loses that point's samples but cannot fail the parent
/// campaign, whose terminal result stands on its own.
fn run_contained(job: &Job, shared: &Shared) -> Completion {
    let unwound = catch_unwind(AssertUnwindSafe(|| match &job.payload {
        Payload::Campaign {
            bench,
            config,
            oracle,
            rendezvous,
        } => {
            let result = match rendezvous {
                Some(rendezvous) => {
                    let mut sink = ServiceSink {
                        shared,
                        events: job.events.clone(),
                        rendezvous: Arc::clone(rendezvous),
                        key: job.key(shared.store.is_some()),
                        spec_index: job.spec_index,
                    };
                    Campaign::new(bench, config.clone()).and_then(|campaign| {
                        campaign.run_with_sink(oracle, shared.store.as_deref(), &mut sink)
                    })
                }
                None => {
                    let events = job.events.clone();
                    let mut sink = move |record: &RunRecord| {
                        let _ = events.send(RunEvent::Record(record.clone()));
                    };
                    Campaign::new(bench, config.clone()).and_then(|campaign| {
                        campaign.run_with_sink(oracle, shared.store.as_deref(), &mut sink)
                    })
                }
            };
            Completion::Terminal {
                result,
                rendezvous: rendezvous.clone(),
            }
        }
        Payload::Fork {
            point, rendezvous, ..
        } => {
            if let Ok(samples) = ForkExecutor::new().replay(point) {
                for sample in samples {
                    shared.metrics.record_fork_sample();
                    let _ = job.events.send(RunEvent::ForkSample(sample));
                }
            }
            Completion::Fork {
                rendezvous: Arc::clone(rendezvous),
            }
        }
        Payload::Probe(Probe::Panic) => panic!("injected panic probe"),
        Payload::Probe(Probe::Gate(gate)) => {
            // Hold the worker until the test releases (or drops) the
            // gate; the probe itself "succeeds" with an empty outcome.
            let _ = gate.recv();
            Completion::Terminal {
                result: Ok(CampaignOutcome {
                    scenario: Scenario::Default,
                    records: Vec::new(),
                    raw_features: 0,
                    used_features: 0,
                    default_seconds_per_input: Vec::new(),
                    state_recovered: false,
                }),
                rendezvous: None,
            }
        }
    }));
    match unwound {
        Ok(completion) => completion,
        Err(payload) => {
            shared.metrics.record_panic();
            let result = Err(EvolveError::CampaignPanicked {
                spec_index: job.spec_index,
                message: panic_message(payload.as_ref()),
            });
            match &job.payload {
                // A panicking fork replay is contained like any other
                // panic, but its terminal is the parent campaign's, not
                // its own.
                Payload::Fork { rendezvous, .. } => Completion::Fork {
                    rendezvous: Arc::clone(rendezvous),
                },
                Payload::Campaign { rendezvous, .. } => Completion::Terminal {
                    result,
                    rendezvous: rendezvous.clone(),
                },
                Payload::Probe(_) => Completion::Terminal {
                    result,
                    rendezvous: None,
                },
            }
        }
    }
}

/// Best-effort rendering of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<CampaignService>();
        assert_send::<CampaignHandle>();
        assert_send::<RunEvent>();
        assert_send::<Job>();
    }

    #[test]
    fn panic_messages_render() {
        let p = catch_unwind(|| panic!("boom")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "boom");
        let p = catch_unwind(|| panic!("{} {}", "formatted", 1)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 1");
        let p = catch_unwind(|| std::panic::panic_any(42_u8)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }

    #[test]
    fn empty_service_drains_and_aborts_cleanly() {
        CampaignService::builder()
            .workers(2)
            .spawn()
            .shutdown(ShutdownMode::Drain);
        CampaignService::builder()
            .workers(2)
            .spawn()
            .shutdown(ShutdownMode::Abort);
        // Drop without explicit shutdown must also terminate.
        let _ = CampaignService::builder().workers(1).spawn();
    }
}
