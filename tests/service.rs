//! Integration tests for the streaming [`CampaignService`], the one way
//! to run a session of campaigns:
//!
//! - every handle streams its per-run records in run order, all of them
//!   **before** the terminal outcome, bit-identical to sequential
//!   [`Campaign::run`];
//! - a service-driven session — including a shared-`model_key` chain
//!   through a [`ShardedStore`] — is bit-identical to running the same
//!   campaigns one after another with [`Campaign::run_with_sink`], and
//!   only keyed campaigns persist state;
//! - submissions block at the configured queue bound and wake when a
//!   slot frees;
//! - shutdown-drain completes queued campaigns while shutdown-abort
//!   cancels them and rejects blocked submitters;
//! - a panicking campaign resolves to
//!   [`EvolveError::CampaignPanicked`] on its own handle and the pool
//!   keeps serving.
//!
//! The worker-pool width is `EVOVM_SERVICE_TEST_WORKERS` (default 2) so
//! CI can sweep narrow and wide pools over the same assertions.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use evolvable_vm::evovm::service::Probe;
use evolvable_vm::evovm::{
    Bench, Campaign, CampaignConfig, CampaignHandle, CampaignOutcome, CampaignService,
    DefaultOracle, EvolveError, ForkPoint, ForkSample, MemoryStore, ModelStore, RunEvent,
    RunRecord, RunSink, Scenario, ShardedStore, ShutdownMode,
};
use evolvable_vm::workloads;

/// Worker-pool width under test (CI sweeps this via the environment).
fn test_workers() -> usize {
    std::env::var("EVOVM_SERVICE_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

fn bench(name: &str) -> Arc<Bench> {
    Arc::new(workloads::by_name(name).expect("bundled workload"))
}

/// Poll `ready` until it holds, panicking after a generous deadline so
/// a scheduling bug fails the test instead of hanging it.
fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(2));
    }
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("evovm-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Drain a handle: streamed records in arrival order plus the final
/// outcome.
fn collect(handle: CampaignHandle) -> (Vec<RunRecord>, Result<CampaignOutcome, EvolveError>) {
    let mut records = Vec::new();
    loop {
        match handle
            .next_event()
            .expect("the stream must end with a terminal event")
        {
            RunEvent::Record(record) => records.push(record),
            RunEvent::ForkSample(_) => continue,
            RunEvent::Finished(result) => return (records, result),
        }
    }
}

fn assert_records_identical(streamed: &[RunRecord], reference: &[RunRecord]) {
    assert_eq!(streamed.len(), reference.len(), "record count");
    for (a, b) in streamed.iter().zip(reference) {
        assert_eq!(a.run_index, b.run_index);
        assert_eq!(a.input_index, b.input_index);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.default_cycles, b.default_cycles);
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        assert_eq!(a.predicted, b.predicted);
        assert_eq!(a.overhead_fraction.to_bits(), b.overhead_fraction.to_bits());
    }
}

fn assert_outcomes_identical(a: &CampaignOutcome, b: &CampaignOutcome) {
    assert_eq!(a.scenario, b.scenario);
    assert_eq!(a.raw_features, b.raw_features);
    assert_eq!(a.used_features, b.used_features);
    assert_eq!(a.state_recovered, b.state_recovered);
    assert_records_identical(&a.records, &b.records);
    let seconds = |o: &CampaignOutcome| {
        o.default_seconds_per_input
            .iter()
            .map(|s| s.map(f64::to_bits))
            .collect::<Vec<_>>()
    };
    assert_eq!(seconds(a), seconds(b));
}

#[test]
fn handle_streams_records_in_run_order_before_the_outcome() {
    let bench = bench("search");
    let config = CampaignConfig::new(Scenario::Evolve).runs(5).seed(3);
    let reference = Campaign::new(&bench, config.clone())
        .expect("campaign")
        .run()
        .expect("reference run succeeds");

    let service = CampaignService::builder().workers(test_workers()).spawn();
    let handle = service
        .submit(Arc::clone(&bench), config)
        .expect("fresh service accepts submissions");
    assert_eq!(handle.spec_index(), 0, "indices start at 0 per service");

    let (streamed, result) = collect(handle);
    let outcome = result.expect("campaign succeeds");

    // Every run produced exactly one record, in run order, and the
    // channel ordering guarantees all of them arrived before Finished.
    assert_eq!(streamed.len(), 5);
    for (i, record) in streamed.iter().enumerate() {
        assert_eq!(record.run_index, i, "records stream in run order");
    }
    assert_records_identical(&streamed, &reference.records);
    assert_outcomes_identical(&outcome, &reference);
    service.shutdown(ShutdownMode::Drain);
}

#[test]
fn service_session_is_bit_identical_to_sequential_campaigns() {
    let mtrt = bench("mtrt");
    let compress = bench("compress");
    let chain = |seed: u64| {
        CampaignConfig::new(Scenario::Evolve)
            .runs(4)
            .seed(seed)
            .model_key("mtrt/chain")
    };
    let mut session: Vec<(Arc<Bench>, CampaignConfig)> = Vec::new();
    for scenario in [Scenario::Default, Scenario::Rep, Scenario::Evolve] {
        session.push((
            Arc::clone(&mtrt),
            CampaignConfig::new(scenario).runs(6).seed(7),
        ));
    }
    session.push((
        Arc::clone(&compress),
        CampaignConfig::new(Scenario::Default).runs(4).seed(3),
    ));
    // Two campaigns persisting under one key: the service must
    // serialize them in submission order.
    session.push((Arc::clone(&mtrt), chain(9)));
    session.push((Arc::clone(&mtrt), chain(10)));

    // Sequential reference: the same campaigns one after another on
    // this thread, with one oracle per bench, over their own store root.
    let reference_root = temp_root("sequential-golden");
    let reference_store = ShardedStore::new(&reference_root);
    let interval = CampaignConfig::new(Scenario::Default)
        .evolve
        .sample_interval_cycles;
    let mtrt_oracle = DefaultOracle::for_bench(&mtrt, interval);
    let compress_oracle = DefaultOracle::for_bench(&compress, interval);
    let reference_outcomes: Vec<CampaignOutcome> = session
        .iter()
        .map(|(bench, config)| {
            let oracle = if Arc::ptr_eq(bench, &mtrt) {
                &mtrt_oracle
            } else {
                &compress_oracle
            };
            Campaign::new(bench, config.clone())
                .expect("campaign")
                .run_with_sink(oracle, Some(&reference_store), &mut |_: &RunRecord| {})
                .expect("sequential campaign succeeds")
        })
        .collect();

    // The same session submitted to a live service over a second root.
    let service_root = temp_root("service-golden");
    let service_store = Arc::new(ShardedStore::new(&service_root));
    let service = CampaignService::builder()
        .workers(test_workers())
        .store(Arc::clone(&service_store) as Arc<dyn ModelStore>)
        .spawn();
    let handles: Vec<CampaignHandle> = session
        .iter()
        .map(|(bench, config)| {
            service
                .submit(Arc::clone(bench), config.clone())
                .expect("fresh service accepts submissions")
        })
        .collect();
    for (handle, expected) in handles.into_iter().zip(&reference_outcomes) {
        let (streamed, result) = collect(handle);
        let outcome = result.expect("service campaign succeeds");
        // The streamed records ARE the sequential records, bit for bit —
        // streaming changes delivery, not content.
        assert_records_identical(&streamed, &expected.records);
        assert_outcomes_identical(&outcome, expected);
    }
    service.shutdown(ShutdownMode::Drain);

    // The chained key's persisted state must be identical across the
    // two roots: submission-order serialization reproduces the
    // sequential store state.
    let chained = reference_store.load("mtrt/chain");
    assert!(chained.is_some(), "chained campaigns persisted state");
    assert_eq!(service_store.load("mtrt/chain"), chained);

    let _ = std::fs::remove_dir_all(&reference_root);
    let _ = std::fs::remove_dir_all(&service_root);
}

#[test]
fn only_keyed_submissions_persist_state() {
    let bench = bench("search");
    let store = Arc::new(MemoryStore::new());
    let service = CampaignService::builder()
        .workers(test_workers())
        .store(Arc::clone(&store) as Arc<dyn ModelStore>)
        .spawn();
    let keyed = service
        .submit(
            Arc::clone(&bench),
            CampaignConfig::new(Scenario::Evolve)
                .runs(3)
                .seed(1)
                .model_key("search/evolve"),
        )
        .expect("fresh service accepts submissions");
    let unkeyed = service
        .submit(
            Arc::clone(&bench),
            CampaignConfig::new(Scenario::Default).runs(2).seed(1),
        )
        .expect("fresh service accepts submissions");
    keyed.wait().expect("keyed campaign succeeds");
    unkeyed.wait().expect("unkeyed campaign succeeds");
    service.shutdown(ShutdownMode::Drain);

    assert!(
        store.load("search/evolve").is_some(),
        "the keyed campaign persists its state"
    );
    assert_eq!(store.len(), 1, "the unkeyed campaign persists nothing");
}

#[test]
fn retention_opt_out_streams_records_without_buffering() {
    let bench = bench("search");
    let retained = CampaignConfig::new(Scenario::Rep).runs(4).seed(2);
    let reference = Campaign::new(&bench, retained.clone())
        .expect("campaign")
        .run()
        .expect("reference run succeeds");

    let service = CampaignService::builder().workers(test_workers()).spawn();
    let handle = service
        .submit(Arc::clone(&bench), retained.retain_records(false))
        .expect("fresh service accepts submissions");
    let (streamed, result) = collect(handle);
    let outcome = result.expect("campaign succeeds");

    assert!(
        outcome.records.is_empty(),
        "retention off: the outcome carries no record buffer"
    );
    assert_records_identical(&streamed, &reference.records);
    service.shutdown(ShutdownMode::Drain);
}

#[test]
fn backpressure_blocks_submit_at_the_configured_bound() {
    let service = CampaignService::builder().workers(1).queue_bound(1).spawn();
    let (gate_tx, gate_rx) = mpsc::channel();
    let gate = service
        .submit_probe(Probe::Gate(gate_rx))
        .expect("fresh service accepts submissions");
    wait_until("the gate probe to occupy the worker", || {
        service.metrics().in_flight == 1
    });

    let bench = bench("search");
    let config = CampaignConfig::new(Scenario::Default).runs(2).seed(1);
    let queued = service
        .submit(Arc::clone(&bench), config.clone())
        .expect("one campaign fits the bound");
    assert_eq!(service.metrics().queue_depth, 1, "queue is now full");

    let unblocked = AtomicBool::new(false);
    let overflow = thread::scope(|s| {
        let submitter = s.spawn(|| {
            let handle = service
                .submit(Arc::clone(&bench), config.clone())
                .expect("submit succeeds once a slot frees");
            unblocked.store(true, Ordering::SeqCst);
            handle
        });
        thread::sleep(Duration::from_millis(150));
        assert!(
            !unblocked.load(Ordering::SeqCst),
            "submit must block while the queue is at its bound"
        );
        gate_tx.send(()).expect("gate probe is waiting");
        submitter.join().expect("submitter thread")
    });
    assert!(unblocked.load(Ordering::SeqCst));

    gate.wait().expect("gate probe completes");
    queued.wait().expect("queued campaign completes");
    overflow.wait().expect("unblocked campaign completes");
    service.shutdown(ShutdownMode::Drain);
}

#[test]
fn shutdown_drain_completes_queued_campaigns() {
    let service = CampaignService::builder()
        .workers(1)
        .queue_bound(16)
        .spawn();
    let (gate_tx, gate_rx) = mpsc::channel();
    let gate = service
        .submit_probe(Probe::Gate(gate_rx))
        .expect("fresh service accepts submissions");
    wait_until("the gate probe to occupy the worker", || {
        service.metrics().in_flight == 1
    });

    let bench = bench("search");
    let config = CampaignConfig::new(Scenario::Default).runs(2).seed(1);
    let first = service
        .submit(Arc::clone(&bench), config.clone())
        .expect("submission accepted");
    let second = service
        .submit(Arc::clone(&bench), config)
        .expect("submission accepted");

    // Initiate a draining shutdown while both campaigns are still
    // queued behind the gate; they must run to completion anyway.
    let joiner = thread::spawn(move || service.shutdown(ShutdownMode::Drain));
    thread::sleep(Duration::from_millis(50));
    gate_tx.send(()).expect("gate probe is waiting");
    joiner.join().expect("shutdown thread");

    gate.wait().expect("gate probe completes");
    let first = first.wait().expect("drained campaign completes");
    let second = second.wait().expect("drained campaign completes");
    assert_eq!(first.records.len(), 2);
    assert_eq!(second.records.len(), 2);
}

#[test]
fn shutdown_abort_cancels_queued_campaigns_and_rejects_submitters() {
    let service = CampaignService::builder().workers(1).queue_bound(1).spawn();
    let (gate_tx, gate_rx) = mpsc::channel();
    let gate = service
        .submit_probe(Probe::Gate(gate_rx))
        .expect("fresh service accepts submissions");
    wait_until("the gate probe to occupy the worker", || {
        service.metrics().in_flight == 1
    });

    let bench = bench("search");
    let config = CampaignConfig::new(Scenario::Default).runs(2).seed(1);
    let queued = service
        .submit(Arc::clone(&bench), config.clone())
        .expect("one campaign fits the bound");

    // A second submitter blocks on backpressure; the abort must wake it
    // with ServiceStopped rather than leaving it parked forever.
    let blocked_result = thread::scope(|s| {
        let submitter = s.spawn(|| service.submit(Arc::clone(&bench), config.clone()));
        thread::sleep(Duration::from_millis(100));
        service.begin_shutdown(ShutdownMode::Abort);
        submitter.join().expect("submitter thread")
    });
    assert!(
        matches!(blocked_result, Err(EvolveError::ServiceStopped)),
        "backpressure-blocked submitter is rejected: {blocked_result:?}"
    );

    // The queued campaign resolves cancelled immediately — before the
    // in-flight gate probe has even finished.
    let cancelled = queued.wait();
    assert!(
        matches!(cancelled, Err(EvolveError::CampaignCancelled)),
        "queued campaign is cancelled: {cancelled:?}"
    );
    assert!(
        matches!(
            service.submit(Arc::clone(&bench), CampaignConfig::new(Scenario::Default)),
            Err(EvolveError::ServiceStopped)
        ),
        "new submissions are rejected after shutdown begins"
    );
    assert_eq!(service.metrics().cancelled, 1);

    gate_tx.send(()).expect("gate probe is waiting");
    service.shutdown(ShutdownMode::Abort);
    gate.wait()
        .expect("the in-flight probe still ran to completion");
}

#[test]
fn worker_panic_is_contained_and_the_pool_keeps_serving() {
    let service = CampaignService::builder().workers(test_workers()).spawn();
    let panicker = service
        .submit_probe(Probe::Panic)
        .expect("fresh service accepts submissions");
    match panicker.wait() {
        Err(EvolveError::CampaignPanicked {
            spec_index,
            message,
        }) => {
            assert_eq!(spec_index, 0);
            assert!(
                message.contains("injected panic probe"),
                "panic payload is preserved: {message}"
            );
        }
        other => panic!("expected a contained panic, got {other:?}"),
    }

    // The pool survives: the very next submission runs normally.
    let outcome = service
        .submit(
            bench("search"),
            CampaignConfig::new(Scenario::Default).runs(3).seed(1),
        )
        .expect("pool accepts work after a panic")
        .wait()
        .expect("campaign after a panic succeeds");
    assert_eq!(outcome.records.len(), 3);

    let metrics = service.metrics();
    assert_eq!(metrics.panicked, 1);
    assert_eq!(metrics.completed, 2, "the panic still counts as served");
    assert_eq!(metrics.per_worker_busy.iter().sum::<u64>(), 2);
    service.shutdown(ShutdownMode::Drain);
}

/// Inline reference for the fork pipeline: collects records, fork
/// points (cloned) and the samples of the campaign's own inline
/// replays.
#[derive(Default)]
struct ForkCollectSink {
    records: Vec<RunRecord>,
    points: Vec<ForkPoint>,
    samples: Vec<ForkSample>,
}

impl RunSink for ForkCollectSink {
    fn on_record(&mut self, record: &RunRecord) {
        self.records.push(record.clone());
    }

    fn on_fork_point(&mut self, point: ForkPoint) -> Option<ForkPoint> {
        self.points.push(point.clone());
        Some(point)
    }

    fn on_fork_sample(&mut self, sample: &ForkSample) {
        self.samples.push(sample.clone());
    }
}

/// Bit-pattern view of a fork sample's labelled payload.
fn sample_key(s: &ForkSample) -> (u64, i8, u64, u64, bool) {
    (
        s.fork_index,
        s.level.as_i8(),
        s.total_cycles,
        s.base_total_cycles,
        s.chosen,
    )
}

#[test]
fn fork_replays_run_as_queue_units_and_samples_stream_before_finished() {
    let bench = bench("search");
    let config = CampaignConfig::new(Scenario::Evolve)
        .runs(3)
        .seed(7)
        .fork_snapshots(2);

    // Inline reference: the same campaign replaying its own forks.
    let oracle = DefaultOracle::for_bench(&bench, config.evolve.sample_interval_cycles);
    let mut reference = ForkCollectSink::default();
    Campaign::new(&bench, config.clone())
        .expect("campaign")
        .run_with_sink(&oracle, None, &mut reference)
        .expect("reference run succeeds");
    assert!(
        !reference.points.is_empty(),
        "the Evolve campaign must capture fork points for this test to bite"
    );

    // Service path: the campaign's sink consumes each point and
    // re-enqueues it; replays run on the worker pool and stream
    // RunEvent::ForkSample back on the campaign's own handle.
    let service = CampaignService::builder().workers(test_workers()).spawn();
    let handle = service
        .submit(Arc::clone(&bench), config)
        .expect("fresh service accepts submissions");
    let mut records = Vec::new();
    let mut samples: Vec<ForkSample> = Vec::new();
    let outcome = loop {
        match handle
            .next_event()
            .expect("the stream must end with a terminal event")
        {
            RunEvent::Record(record) => records.push(record),
            RunEvent::ForkSample(sample) => samples.push(sample),
            // The rendezvous holds the terminal back until every fork
            // resolves, so Finished is necessarily the last event.
            RunEvent::Finished(result) => break result.expect("campaign succeeds"),
        }
    };
    assert!(
        handle.next_event().is_none(),
        "nothing streams after the terminal event"
    );

    // The factual stream is untouched by rerouting the counterfactuals.
    assert_records_identical(&records, &reference.records);
    assert_records_identical(&outcome.records, &reference.records);

    // The pool's replays produce exactly the inline samples. Workers
    // race across fork points, so compare as sorted multisets.
    let mut streamed: Vec<_> = samples.iter().map(sample_key).collect();
    let mut inline: Vec<_> = reference.samples.iter().map(sample_key).collect();
    streamed.sort_unstable();
    inline.sort_unstable();
    assert_eq!(streamed, inline, "counterfactual costs diverged");

    let metrics = service.metrics();
    assert_eq!(metrics.forks_spawned as usize, reference.points.len());
    assert_eq!(metrics.forks_completed, metrics.forks_spawned);
    assert_eq!(metrics.forks_cancelled, 0);
    assert_eq!(metrics.fork_samples as usize, samples.len());
    assert_eq!(
        metrics.completed, 1,
        "fork jobs are not campaign completions"
    );
    service.shutdown(ShutdownMode::Drain);
}

#[test]
fn keyed_forks_park_behind_the_parent_lane_and_still_resolve() {
    // With a model key, the parent campaign occupies the key's lane for
    // its whole run, so every fork it spawns parks and can only execute
    // after the campaign job releases the lane — while the campaign's
    // terminal is itself parked in the rendezvous until those forks
    // resolve. This test locks that handshake (a lane/rendezvous
    // deadlock would hang it).
    let bench = bench("search");
    let root = temp_root("fork-keyed");
    let store = Arc::new(ShardedStore::new(&root));
    let service = CampaignService::builder()
        .workers(test_workers())
        .store(Arc::clone(&store) as Arc<dyn ModelStore>)
        .spawn();
    let handle = service
        .submit(
            Arc::clone(&bench),
            CampaignConfig::new(Scenario::Evolve)
                .runs(3)
                .seed(7)
                .model_key("search/forked")
                .fork_snapshots(2),
        )
        .expect("fresh service accepts submissions");
    let mut samples = 0usize;
    loop {
        match handle
            .next_event()
            .expect("the stream must end with a terminal event")
        {
            RunEvent::Record(_) => {}
            RunEvent::ForkSample(_) => samples += 1,
            RunEvent::Finished(result) => {
                result.expect("keyed forked campaign succeeds");
                break;
            }
        }
    }
    let metrics = service.metrics();
    assert!(metrics.forks_spawned > 0, "the campaign must fork");
    assert_eq!(metrics.forks_completed, metrics.forks_spawned);
    assert_eq!(samples as u64, metrics.fork_samples);
    service.shutdown(ShutdownMode::Drain);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn same_model_key_chain_reproduces_sequential_store_state() {
    let bench = bench("search");
    let config = |seed: u64| {
        CampaignConfig::new(Scenario::Evolve)
            .runs(4)
            .seed(seed)
            .model_key("search/chain")
    };

    // Sequential reference: two plain campaigns, one after the other,
    // over their own ShardedStore root.
    let reference_root = temp_root("chain-reference");
    let reference_store = ShardedStore::new(&reference_root);
    let oracle = DefaultOracle::for_bench(&bench, config(0).evolve.sample_interval_cycles);
    let mut reference_outcomes = Vec::new();
    for seed in [5, 6] {
        reference_outcomes.push(
            Campaign::new(&bench, config(seed))
                .expect("campaign")
                .run_with_sink(&oracle, Some(&reference_store), &mut |_: &RunRecord| {})
                .expect("sequential campaign succeeds"),
        );
    }

    // Service path: both campaigns submitted up front to a multi-worker
    // pool sharing one key — the lane discipline must serialize them.
    let service_root = temp_root("chain-service");
    let service_store = Arc::new(ShardedStore::new(&service_root));
    let service = CampaignService::builder()
        .workers(test_workers().max(2))
        .store(Arc::clone(&service_store) as Arc<dyn ModelStore>)
        .spawn();
    let first = service
        .submit(Arc::clone(&bench), config(5))
        .expect("submission accepted");
    let second = service
        .submit(Arc::clone(&bench), config(6))
        .expect("submission accepted");
    let first = first.wait().expect("first chained campaign succeeds");
    let second = second.wait().expect("second chained campaign succeeds");
    service.shutdown(ShutdownMode::Drain);

    assert_outcomes_identical(&first, &reference_outcomes[0]);
    assert_outcomes_identical(&second, &reference_outcomes[1]);
    let reference_state = reference_store.load("search/chain");
    assert!(reference_state.is_some(), "the chain persisted state");
    assert_eq!(service_store.load("search/chain"), reference_state);

    let _ = std::fs::remove_dir_all(&reference_root);
    let _ = std::fs::remove_dir_all(&service_root);
}
