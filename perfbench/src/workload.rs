//! The three workloads: what each submits, and what its set-up does.

use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use evovm::{
    Bench, CampaignConfig, CampaignService, EvolveConfig, ModelStore, Scenario, ShardedStore,
    StoreMetrics, StoreMetricsSnapshot,
};
use evovm_workloads as workloads;

use crate::check::Expected;
use crate::closed_loop::{self, Job, LoopStats};
use crate::direct::{OracleMemo, Pass};

/// The Table I workloads `relaunch-history` and `fork-factory` run: those
/// whose runs are short and whose input sizes vary least from seed to
/// seed, so per-launch costs and fork replays, not input sizes, set the
/// figures.
pub const STABLE_WORKLOADS: [&str; 3] = ["search", "mtrt", "raytracer"];
/// Input sets per stable workload: each is materialized from its own
/// seed (derived from the run's seed) and, in `relaunch-history`, learns
/// under its own key, so a run averages over independent input sets and
/// histories instead of resting on one draw of each.
pub const INPUT_SETS: u64 = 4;
/// Runs of learned history each key carries into `relaunch-history`.
pub const HISTORY_RUNS: usize = 100;
/// Launches per key in one `relaunch-history` iteration.
pub const LAUNCHES_PER_KEY: usize = 33;
/// Fork points each `fork-factory` run may capture.
pub const FORK_SNAPSHOTS: usize = 8;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 11 workloads × {Default, Rep, Evolve} at paper run counts, on
    /// a fresh service (cold oracle) each iteration.
    Table1Cold,
    /// One `runs(1)` Evolve submission per production run, each against
    /// a key with a long stored history.
    RelaunchHistory,
    /// Evolve at paper run counts with fork capture on; replays run as
    /// service jobs.
    ForkFactory,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "table1-cold" => Some(Workload::Table1Cold),
            "relaunch-history" => Some(Workload::RelaunchHistory),
            "fork-factory" => Some(Workload::ForkFactory),
            _ => None,
        }
    }

    /// Whether set-up warms a long-lived service's oracle.
    pub fn warm(self) -> bool {
        self != Workload::Table1Cold
    }
}

/// A model store whose backing `ShardedStore` can be replaced between
/// iterations, so each `relaunch-history` iteration starts from the same
/// stored blobs while the service (and its warm oracle) lives on.
#[derive(Debug)]
pub struct SwapStore {
    current: RwLock<Arc<ShardedStore>>,
    metrics: StoreMetrics,
}

impl SwapStore {
    fn new(root: &Path) -> SwapStore {
        SwapStore {
            current: RwLock::new(Arc::new(ShardedStore::new(root))),
            metrics: StoreMetrics::new(),
        }
    }

    fn current(&self) -> Arc<ShardedStore> {
        Arc::clone(&self.current.read().expect("store lock holder panicked"))
    }

    /// Replace the backing store with a fresh one at `root` holding
    /// `blobs`.
    fn reset(&self, root: &Path, blobs: &[(String, String)]) {
        let fresh = Arc::new(ShardedStore::new(root));
        for (key, blob) in blobs {
            fresh.save(key, blob);
        }
        *self.current.write().expect("store lock holder panicked") = fresh;
    }
}

impl ModelStore for SwapStore {
    fn save(&self, key: &str, state: &str) {
        self.current().save(key, state);
    }

    fn load(&self, key: &str) -> Option<String> {
        self.current().load(key)
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }
}

/// Everything set-up leaves for the timed iterations.
#[derive(Debug)]
pub struct Setup {
    /// The Table I workloads this workload runs.
    pub benches: Vec<Arc<Bench>>,
    /// One iteration's campaigns, in submission order.
    pub jobs: Vec<Job>,
    /// The Default campaigns set-up ran to warm the oracle.
    pub warm: Vec<Job>,
    /// The long-lived service of a warm workload.
    pub service: Option<CampaignService>,
    /// The store behind that service (`relaunch-history`).
    pub store: Option<Arc<SwapStore>>,
    /// Each key's stored history after set-up (`relaunch-history`).
    pub blobs: Vec<(String, String)>,
    /// Wall time of `workloads::materialize` over all benches.
    pub materialize_s: f64,
    /// Directory for store files.
    pub dir: PathBuf,
}

fn config(scenario: Scenario, runs: usize, seed: u64) -> CampaignConfig {
    CampaignConfig::new(scenario)
        .runs(runs)
        .seed(seed)
        .retain_records(false)
}

/// The `index`-th seed derived from `seed` (the 0th is `seed` itself).
fn derive(seed: u64, index: u64) -> u64 {
    seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Run set-up: materialize the benches and, for warm workloads, spawn
/// the service and warm its oracle (and build the stored histories).
///
/// # Errors
///
/// A description of the first failure.
pub fn setup(
    workload: Workload,
    seed: u64,
    workers: usize,
    dir: PathBuf,
    deadline: Instant,
) -> Result<Setup, String> {
    // (workload, seed of its input set).
    let sets: Vec<(&str, u64)> = match workload {
        Workload::Table1Cold => workloads::names().into_iter().map(|n| (n, seed)).collect(),
        Workload::RelaunchHistory | Workload::ForkFactory => STABLE_WORKLOADS
            .iter()
            .flat_map(|&n| (0..INPUT_SETS).map(move |k| (n, derive(seed, k))))
            .collect(),
    };
    let started = Instant::now();
    let benches: Vec<Arc<Bench>> = sets
        .iter()
        .map(|&(name, seed)| {
            Arc::new(workloads::materialize(name, seed).expect("bundled workload"))
        })
        .collect();
    let materialize_s = started.elapsed().as_secs_f64();

    let mut setup = Setup {
        benches,
        jobs: Vec::new(),
        warm: Vec::new(),
        service: None,
        store: None,
        blobs: Vec::new(),
        materialize_s,
        dir,
    };
    let paper_runs: Vec<usize> = setup
        .benches
        .iter()
        .map(|bench| workloads::info(&bench.name).map_or(30, |info| info.campaign_runs))
        .collect();
    let job = |bench: usize, config: CampaignConfig| Job { bench, config };
    let mut history = Vec::new();
    match workload {
        Workload::Table1Cold => {
            // Scenario-major order, as a Table I session runs: every
            // Default campaign (which fills the cold oracle) before any
            // Rep or Evolve campaign reads it, so campaigns running side
            // by side never wait on each other's baseline runs.
            for scenario in [Scenario::Default, Scenario::Rep, Scenario::Evolve] {
                for (bench, &runs) in paper_runs.iter().enumerate() {
                    setup.jobs.push(job(bench, config(scenario, runs, seed)));
                }
            }
        }
        Workload::ForkFactory => {
            for (bench, &(_, seed)) in sets.iter().enumerate() {
                let runs = paper_runs[bench];
                setup
                    .warm
                    .push(job(bench, config(Scenario::Default, runs, seed)));
                setup.jobs.push(job(
                    bench,
                    config(Scenario::Evolve, runs, seed).fork_snapshots(FORK_SNAPSHOTS),
                ));
            }
        }
        Workload::RelaunchHistory => {
            let key = |bench: usize| format!("{}-{}", sets[bench].0, bench);
            // The history campaigns fill the oracle for their own inputs;
            // the launches' inputs are warmed by one-run Default campaigns.
            for (bench, &(_, seed)) in sets.iter().enumerate() {
                history.push(job(
                    bench,
                    config(Scenario::Evolve, HISTORY_RUNS, seed).model_key(key(bench)),
                ));
            }
            // Launch-major order: consecutive submissions name different
            // keys, so the closed loop's outstanding launches rarely park
            // behind each other on a key lane. Each launch is its own
            // one-run campaign, so each gets its own seed.
            for launch in 0..LAUNCHES_PER_KEY {
                for (bench, &(_, seed)) in sets.iter().enumerate() {
                    let seed = derive(seed, launch as u64 + 1);
                    setup
                        .warm
                        .push(job(bench, config(Scenario::Default, 1, seed)));
                    setup.jobs.push(job(
                        bench,
                        config(Scenario::Evolve, 1, seed).model_key(key(bench)),
                    ));
                }
            }
        }
    }
    if !workload.warm() {
        return Ok(setup);
    }

    let mut builder = CampaignService::builder().workers(workers);
    if workload == Workload::RelaunchHistory {
        let store = Arc::new(SwapStore::new(&setup.dir.join("history")));
        builder = builder.store(Arc::clone(&store) as Arc<dyn ModelStore>);
        setup.store = Some(store);
    }
    let service = builder.spawn();
    let mut stats = LoopStats::default();
    closed_loop::iterate(
        &service,
        &setup.benches,
        &setup.warm,
        None,
        deadline,
        &mut stats,
    );
    closed_loop::iterate(
        &service,
        &setup.benches,
        &history,
        None,
        deadline,
        &mut stats,
    );
    if stats.failed > 0 {
        return Err(format!("set-up campaigns failed: {:?}", stats.errors));
    }
    if let Some(store) = &setup.store {
        for job in &history {
            let key = job
                .config
                .model_key
                .clone()
                .expect("history jobs are keyed");
            let blob = store
                .load(&key)
                .ok_or_else(|| format!("no stored history for `{key}`"))?;
            setup.blobs.push((key, blob));
        }
    }
    setup.service = Some(service);
    Ok(setup)
}

impl Setup {
    /// Point the `relaunch-history` store at a fresh directory holding
    /// only the set-up histories (untimed, before each iteration).
    pub fn reset_store(&self, tag: &str) {
        if let Some(store) = &self.store {
            let root = self.dir.join(tag);
            let _ = std::fs::remove_dir_all(&root);
            store.reset(&root, &self.blobs);
        }
    }

    /// A fresh store holding only the set-up histories, for a direct pass.
    pub fn fresh_store(&self, tag: &str) -> Option<ShardedStore> {
        self.store.as_ref()?;
        let root = self.dir.join(tag);
        let _ = std::fs::remove_dir_all(&root);
        let store = ShardedStore::new(root);
        for (key, blob) in &self.blobs {
            store.save(key, blob);
        }
        Some(store)
    }

    /// Run one direct pass over the campaigns of an iteration whose
    /// bench index is `part` modulo `parts`: cold oracles for
    /// `table1-cold`, oracles warmed outside the campaign trees for the
    /// warm workloads, and a fresh store from the set-up histories.
    /// Digests come back per job, `None` for jobs outside the part.
    ///
    /// # Errors
    ///
    /// A description of the first failing campaign.
    pub fn direct_pass(
        &self,
        traced: bool,
        tag: &str,
        (part, parts): (usize, usize),
    ) -> Result<(Pass, Vec<Option<Expected>>, StoreMetricsSnapshot), String> {
        let mine = |job: &Job| job.bench % parts == part;
        let mut pass = Pass::new(traced);
        let interval = EvolveConfig::default().sample_interval_cycles;
        let mut oracles: Vec<OracleMemo> = self
            .benches
            .iter()
            .map(|bench| OracleMemo::new(bench, interval))
            .collect();
        for job in self.warm.iter().filter(|job| mine(job)) {
            oracles[job.bench]
                .warm(&self.benches[job.bench], &job.config, &mut pass.tracer)
                .map_err(|e| format!("oracle warm-up: {e}"))?;
        }
        let store = self.fresh_store(tag);
        let seeded = store
            .as_ref()
            .map(|s| s.metrics().snapshot())
            .unwrap_or_default();
        let mut digests = vec![None; self.jobs.len()];
        for (id, job) in self.jobs.iter().enumerate().filter(|(_, job)| mine(job)) {
            let expected = pass
                .campaign(
                    u32::try_from(id).expect("fewer than 2^32 campaigns"),
                    &self.benches[job.bench],
                    &job.config,
                    &mut oracles[job.bench],
                    store.as_ref().map(|s| s as &dyn ModelStore),
                )
                .map_err(|e| format!("direct pass, job {id}: {e}"))?;
            digests[id] = Some(expected);
        }
        // Only the pass's own store traffic, not the seeding.
        let after = store.map(|s| s.metrics().snapshot()).unwrap_or_default();
        let store_metrics = StoreMetricsSnapshot {
            saves: after.saves - seeded.saves,
            loads: after.loads - seeded.loads,
            recoveries: after.recoveries - seeded.recoveries,
            compactions: after.compactions - seeded.compactions,
        };
        Ok((pass, digests, store_metrics))
    }

    /// Pin every job's digest with untraced direct passes, the benches
    /// split over `threads` threads (campaigns of different benches share
    /// no oracle, store key or state).
    ///
    /// # Errors
    ///
    /// A description of the first failing campaign.
    pub fn pin(&self, threads: usize) -> Result<Vec<Expected>, String> {
        let threads = threads.max(1);
        let parts: Vec<Result<Vec<Option<Expected>>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|part| {
                    scope.spawn(move || {
                        self.direct_pass(false, &format!("pin-{part}"), (part, threads))
                            .map(|(_, digests, _)| digests)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("pinning thread panicked"))
                .collect()
        });
        let mut pinned = vec![None; self.jobs.len()];
        for part in parts {
            for (slot, expected) in pinned.iter_mut().zip(part?) {
                if expected.is_some() {
                    *slot = expected;
                }
            }
        }
        Ok(pinned
            .into_iter()
            .map(|expected| expected.expect("every job belongs to one part"))
            .collect())
    }
}
