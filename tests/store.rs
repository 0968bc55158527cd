//! Model-store integration tests: edge-case keys, concurrency, crash
//! injection, the sharded store's append-only logs, and learned-state
//! round-trips through every backend.
//!
//! The persistence contract under test (documented in `evovm::store`):
//! saves are atomic, keys never collide after sanitization, corrupt or
//! torn state degrades to older state and then to fresh-start — never
//! to a failed campaign — and every degradation is counted in the
//! store's metrics.

use std::path::PathBuf;

use evolvable_vm::evovm::{
    Campaign, CampaignConfig, DefaultOracle, EvolvableVm, EvolveConfig, EvolveState, MemoryStore,
    ModelStore, RunRecord, Scenario, ShardedStore, StoreMetrics,
};
use evolvable_vm::learn::ConfidenceTracker;
use evolvable_vm::workloads;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("evovm-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `check` against every backend; the disk-backed one gets a fresh
/// temp root that is removed afterwards.
fn with_each_backend(tag: &str, check: impl Fn(&str, &dyn ModelStore)) {
    let memory = MemoryStore::new();
    check("memory", &memory);

    let sharded_root = temp_dir(&format!("{tag}-sharded"));
    let sharded = ShardedStore::new(&sharded_root);
    check("sharded", &sharded);
    let _ = std::fs::remove_dir_all(&sharded_root);
}

#[test]
fn empty_key_round_trips_on_every_backend() {
    with_each_backend("empty-key", |name, store| {
        assert_eq!(store.load(""), None, "{name}: empty store");
        store.save("", "{\"empty\":true}");
        assert_eq!(
            store.load("").as_deref(),
            Some("{\"empty\":true}"),
            "{name}: empty key must round-trip"
        );
    });
}

#[test]
fn oversized_key_round_trips_on_every_backend() {
    // Far past any filesystem's 255-byte filename limit, with slashes
    // and spaces for good measure.
    let key = format!("campaign/{}/evolve run", "x".repeat(4096));
    let other = format!("campaign/{}/evolve run", "y".repeat(4096));
    with_each_backend("long-key", |name, store| {
        store.save(&key, "long");
        store.save(&other, "other");
        assert_eq!(
            store.load(&key).as_deref(),
            Some("long"),
            "{name}: oversized key must round-trip"
        );
        assert_eq!(
            store.load(&other).as_deref(),
            Some("other"),
            "{name}: oversized keys must stay distinct"
        );
    });
}

#[test]
fn sanitization_collisions_stay_distinct_on_every_backend() {
    with_each_backend("collide", |name, store| {
        store.save("mtrt/evolve", "slash");
        store.save("mtrt_evolve", "underscore");
        store.save("mtrt evolve", "space");
        assert_eq!(
            store.load("mtrt/evolve").as_deref(),
            Some("slash"),
            "{name}"
        );
        assert_eq!(
            store.load("mtrt_evolve").as_deref(),
            Some("underscore"),
            "{name}"
        );
        assert_eq!(
            store.load("mtrt evolve").as_deref(),
            Some("space"),
            "{name}"
        );
    });
}

#[test]
fn concurrent_saves_and_loads_on_one_key() {
    const WRITERS: usize = 4;
    const ROUNDS: usize = 25;
    with_each_backend("concurrent", |name, store| {
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        store.save("shared/key", &format!("payload-{w}-{round}"));
                    }
                });
            }
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    if let Some(state) = store.load("shared/key") {
                        assert!(
                            state.starts_with("payload-"),
                            "{name}: reader must never observe a torn value, got {state:?}"
                        );
                    }
                }
            });
        });
        let last = store.load("shared/key").expect("a write landed");
        assert!(last.starts_with("payload-"), "{name}: final value intact");
        assert_eq!(
            store.metrics().snapshot().recoveries,
            0,
            "{name}: concurrency alone must not corrupt anything"
        );
    });
}

#[test]
fn confidence_tracker_round_trips_through_every_backend() {
    let mut tracker = ConfidenceTracker::default();
    tracker.update(0.9);
    tracker.update(0.75);
    let json = serde_json::to_string(&tracker).expect("tracker serializes");
    with_each_backend("confidence", |name, store| {
        store.save("conf/tracker", &json);
        let restored: ConfidenceTracker =
            serde_json::from_str(&store.load("conf/tracker").expect("saved"))
                .expect("tracker deserializes");
        assert_eq!(restored, tracker, "{name}: tracker must survive the store");
    });
}

#[test]
fn evolvable_vm_state_round_trips_through_every_backend() {
    let bench = workloads::by_name("search").expect("bundled workload");
    let mut vm = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    for i in 0..8 {
        vm.run_once(&bench.inputs[i % bench.inputs.len()])
            .expect("runs succeed");
    }
    let exported = vm.export_state();
    with_each_backend("evolve-state", |name, store| {
        store.save("search/evolve", &exported);
        let mut restored = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
        restored
            .import_state(&store.load("search/evolve").expect("saved"))
            .expect("state imports");
        assert_eq!(
            restored.export_state(),
            exported,
            "{name}: re-export must be byte-identical"
        );
    });
}

/// Valid JSON in the `EvolveState` shape whose history rows have
/// mismatched schemas — it parses, but `import_state` fails while
/// rebuilding the per-method models.
const UNIMPORTABLE_STATE: &str = r#"{"history":[
  {"features":[["a",{"Num":1.0}]],"ideal":[0]},
  {"features":[["a",{"Num":1.0}],["b",{"Num":2.0}]],"ideal":[0]}
],"confidence":null}"#;

#[test]
fn campaign_fresh_starts_over_unimportable_state() {
    let bench = workloads::by_name("search").expect("bundled workload");
    let store = MemoryStore::new();
    store.save("search/evolve", UNIMPORTABLE_STATE);
    let recoveries_before_campaign = store.metrics().snapshot().recoveries;

    let config = CampaignConfig::new(Scenario::Evolve)
        .runs(4)
        .seed(3)
        .model_key("search/evolve");
    let oracle = DefaultOracle::for_bench(&bench, config.evolve.sample_interval_cycles);
    let outcome = Campaign::new(&bench, config.clone())
        .expect("campaign")
        .run_with_sink(&oracle, Some(&store), &mut |_: &RunRecord| {})
        .expect("corrupt stored state must not fail the campaign");
    assert!(
        outcome.state_recovered,
        "the outcome must record the fresh-start recovery"
    );
    assert_eq!(
        store.metrics().snapshot().recoveries,
        recoveries_before_campaign + 1,
        "the store must count the recovery"
    );
    assert_ne!(
        store.load("search/evolve").as_deref(),
        Some(UNIMPORTABLE_STATE),
        "the fresh-started campaign persists real learned state"
    );

    // The fresh-start must behave exactly like a campaign that never
    // had stored state at all.
    let clean = Campaign::new(&bench, config.model_key("search/clean"))
        .expect("campaign")
        .run()
        .expect("clean campaign succeeds");
    assert_eq!(outcome.records.len(), clean.records.len());
    for (a, b) in outcome.records.iter().zip(&clean.records) {
        assert_eq!(a.cycles, b.cycles, "fresh-start equals truly-fresh");
    }
    assert!(!clean.state_recovered, "no store, nothing to recover");
}

#[test]
fn a_failed_import_leaves_the_vm_unchanged() {
    let bench = workloads::by_name("search").expect("bundled workload");
    let mut vm = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    for input in bench.inputs.iter().take(5) {
        vm.run_once(input).expect("run succeeds");
    }
    let before = vm.export_state();
    assert!(vm.import_state(UNIMPORTABLE_STATE).is_err());
    assert_eq!(vm.export_state(), before, "nothing of the blob is kept");
    assert_eq!(vm.runs_observed(), 5);
}

/// Stored blobs neither stateful backend can parse: not JSON at all, and
/// JSON in neither backend's shape.
const MALFORMED_STATES: [&str; 2] = ["this is not json", r#"{"unrelated":[1,2,3]}"#];

/// Every bit of a record, for exact comparison.
fn record_bits(r: &RunRecord) -> (usize, usize, u64, u64, [u64; 4], bool) {
    (
        r.run_index,
        r.input_index,
        r.cycles,
        r.default_cycles,
        [
            r.speedup.to_bits(),
            r.confidence.to_bits(),
            r.accuracy.to_bits(),
            r.overhead_fraction.to_bits(),
        ],
        r.predicted,
    )
}

#[test]
fn malformed_stored_state_counts_as_a_recovery() {
    let bench = workloads::by_name("search").expect("bundled workload");
    for scenario in [Scenario::Rep, Scenario::Evolve] {
        let config = CampaignConfig::new(scenario).runs(4).seed(3);
        let oracle = DefaultOracle::for_bench(&bench, config.evolve.sample_interval_cycles);
        let fresh = Campaign::new(&bench, config.clone())
            .expect("campaign")
            .run_with_sink(&oracle, None, &mut |_: &RunRecord| {})
            .expect("fresh campaign succeeds");
        for blob in MALFORMED_STATES {
            let store = MemoryStore::new();
            store.save("search/malformed", blob);
            let outcome = Campaign::new(&bench, config.clone().model_key("search/malformed"))
                .expect("campaign")
                .run_with_sink(&oracle, Some(&store), &mut |_: &RunRecord| {})
                .expect("a malformed blob must not fail the campaign");
            assert!(
                outcome.state_recovered,
                "{scenario} over {blob:?}: the outcome records the recovery"
            );
            assert_eq!(
                store.metrics().snapshot().recoveries,
                1,
                "{scenario} over {blob:?}: the store counts the recovery"
            );
            assert_eq!(
                outcome.records.iter().map(record_bits).collect::<Vec<_>>(),
                fresh.records.iter().map(record_bits).collect::<Vec<_>>(),
                "{scenario} over {blob:?}: the recovered campaign is a fresh one"
            );
            assert_eq!(outcome.used_features, fresh.used_features);
        }
    }
}

#[test]
fn sharded_store_survives_kill_mid_write_simulation() {
    // A crash mid-write leaves either an orphan temp file (the rename
    // never happened) or a truncated blob under a version name (e.g. a
    // partial copy restored from elsewhere). Both must be invisible to
    // `load`.
    let root = temp_dir("kill-mid-write");
    let store = ShardedStore::new(&root);
    store.save("campaign/state", "{\"runs\":9}");

    // Orphan temp file from a writer that died before its rename.
    let final_path = store.version_path("campaign/state", 1);
    let shard_dir = final_path
        .parent()
        .expect("versioned files live in a shard");
    std::fs::write(shard_dir.join("dead-writer.v2.json.tmp-999-0"), "{\"ru").unwrap();
    // Truncated frame under the next version name.
    let intact = std::fs::read(&final_path).expect("v1 exists");
    std::fs::write(
        store.version_path("campaign/state", 2),
        &intact[..intact.len() / 2],
    )
    .unwrap();

    assert_eq!(
        store.load("campaign/state").as_deref(),
        Some("{\"runs\":9}"),
        "torn newer version must be skipped"
    );
    assert_eq!(store.metrics().snapshot().recoveries, 1);

    // The next save supersedes the torn version; compaction removes it.
    store.save("campaign/state", "{\"runs\":10}");
    store.compact();
    assert_eq!(
        store.load("campaign/state").as_deref(),
        Some("{\"runs\":10}")
    );
    assert_eq!(
        store.version_numbers("campaign/state").len(),
        1,
        "compaction prunes superseded and torn versions"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A state shaped like a learner's blob: `rows` history rows, then a
/// tail that changes at every save.
fn grown_state(tag: &str, rows: usize) -> String {
    let history: Vec<String> = (0..rows)
        .map(|i| format!("{{\"{tag}\":{i},\"ideal\":[0,1,2]}}"))
        .collect();
    format!(
        "{{\"history\":[{}],\"confidence\":{{\"updates\":{rows}}}}}",
        history.join(",")
    )
}

fn log_path(store: &ShardedStore, key: &str, version: u64) -> PathBuf {
    store.version_path(key, version).with_extension("log")
}

#[test]
fn growing_states_round_trip_through_appends_and_folds() {
    let root = temp_dir("append-fold");
    let store = ShardedStore::new(&root);
    let mut folds = 0;
    for rows in 40..200 {
        let state = grown_state("row", rows);
        let bases = store.version_numbers("k").len();
        store.save("k", &state);
        folds += usize::from(store.version_numbers("k").len() > bases);
        assert_eq!(store.load("k"), Some(state.clone()), "{rows} rows");
        // Another process's store over the same root reads the same.
        assert_eq!(ShardedStore::new(&root).load("k"), Some(state));
    }
    // Appends are the rule and a new base the exception, and the
    // version cap still bounds the base count.
    assert!((2..20).contains(&folds), "{folds} folds in 160 saves");
    assert!(store.version_numbers("k").len() <= 4);
    assert_eq!(store.metrics().snapshot().recoveries, 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_log_records_load_the_previous_state() {
    let root = temp_dir("torn-log");
    let store = ShardedStore::new(&root);
    store.save("k", &grown_state("row", 50));
    store.save("k", &grown_state("row", 51));
    let log = log_path(&store, "k", 1);
    let intact = std::fs::metadata(&log).expect("the save appended").len() as usize;
    store.save("k", &grown_state("row", 52));
    let full = std::fs::read(&log).expect("log");
    assert_eq!(store.version_numbers("k"), [1], "both saves appended");

    // Every truncation of the last record is an append still in flight:
    // the previous state loads, and no recovery is counted.
    for cut in intact..full.len() {
        std::fs::write(&log, &full[..cut]).expect("truncate");
        let reader = ShardedStore::new(&root);
        assert_eq!(
            reader.load("k"),
            Some(grown_state("row", 51)),
            "log cut at byte {cut}"
        );
        assert_eq!(reader.metrics().snapshot().recoveries, 0, "cut at {cut}");
    }

    // A save behind a torn record writes a new base instead.
    std::fs::write(&log, &full[..full.len() - 3]).expect("truncate");
    let writer = ShardedStore::new(&root);
    writer.save("k", &grown_state("row", 52));
    assert_eq!(writer.version_numbers("k"), [1, 2]);
    assert_eq!(writer.load("k"), Some(grown_state("row", 52)));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_log_record_failing_its_checksum_counts_one_recovery() {
    let root = temp_dir("bad-record");
    let store = ShardedStore::new(&root);
    store.save("k", &grown_state("row", 50));
    store.save("k", &grown_state("row", 51));
    store.save("k", &grown_state("row", 52));
    let log = log_path(&store, "k", 1);
    let mut flipped = std::fs::read(&log).expect("log");
    *flipped.last_mut().expect("a record") ^= 1;
    std::fs::write(&log, &flipped).expect("flip a suffix byte");

    let reader = ShardedStore::new(&root);
    assert_eq!(reader.load("k"), Some(grown_state("row", 51)));
    assert_eq!(reader.metrics().snapshot().recoveries, 1);
    // The next save starts a new base rather than append behind it.
    reader.save("k", &grown_state("row", 53));
    assert_eq!(reader.version_numbers("k"), [1, 2]);
    assert_eq!(reader.load("k"), Some(grown_state("row", 53)));
    assert_eq!(reader.metrics().snapshot().recoveries, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn log_records_against_another_state_are_skipped() {
    let root = temp_dir("foreign-record");
    let store = ShardedStore::new(&root);
    store.save("a", &grown_state("row", 50));
    store.save("a", &grown_state("row", 51));
    // Shorter rows, so the record's kept prefix lies within `a`'s state.
    store.save("b", &grown_state("b", 50));
    let b_log = log_path(&store, "b", 1);
    store.save("b", &grown_state("b", 51));
    let foreign = std::fs::read(&b_log).expect("b appended");

    // `b`'s record is intact but names `b`'s state as its parent.
    let a_log = log_path(&store, "a", 1);
    let mut log = std::fs::read(&a_log).expect("a appended");
    log.extend_from_slice(&foreign);
    std::fs::write(&a_log, &log).expect("plant the foreign record");
    let reader = ShardedStore::new(&root);
    assert_eq!(reader.load("a"), Some(grown_state("row", 51)));
    assert_eq!(reader.metrics().snapshot().recoveries, 0);

    // It does not stop later records from applying.
    reader.save("a", &grown_state("row", 52));
    assert_eq!(reader.version_numbers("a"), [1]);
    assert_eq!(reader.load("a"), Some(grown_state("row", 52)));
    assert_eq!(
        ShardedStore::new(&root).load("a"),
        Some(grown_state("row", 52))
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A store that saves to a `MemoryStore` and a `ShardedStore` alike and
/// checks, on every load and after every save, that both hold the same.
#[derive(Debug)]
struct Tee {
    memory: MemoryStore,
    sharded: ShardedStore,
}

impl ModelStore for Tee {
    fn save(&self, key: &str, state: &str) {
        self.memory.save(key, state);
        self.sharded.save(key, state);
        assert_eq!(
            self.sharded.load(key).as_deref(),
            Some(state),
            "{key}: a load returns what was saved"
        );
    }

    fn load(&self, key: &str) -> Option<String> {
        let state = self.memory.load(key);
        assert_eq!(self.sharded.load(key), state, "{key}");
        state
    }

    fn metrics(&self) -> &StoreMetrics {
        self.memory.metrics()
    }
}

#[test]
fn sharded_chains_match_memory_chains_on_every_workload() {
    let root = temp_dir("chains");
    let tee = Tee {
        memory: MemoryStore::new(),
        sharded: ShardedStore::new(&root),
    };
    for name in workloads::names() {
        let bench = workloads::by_name(name).expect("bundled workload");
        let oracle =
            DefaultOracle::for_bench(&bench, EvolveConfig::default().sample_interval_cycles);
        for scenario in [Scenario::Rep, Scenario::Evolve] {
            let key = format!("{name}/{scenario}");
            let launches = std::iter::once(20).chain(std::iter::repeat_n(1, 10));
            for (seed, runs) in launches.enumerate() {
                let config = CampaignConfig::new(scenario)
                    .runs(runs)
                    .seed(seed as u64)
                    .model_key(key.as_str());
                let outcome = Campaign::new(&bench, config)
                    .expect("campaign")
                    .run_with_sink(&oracle, Some(&tee), &mut |_: &RunRecord| {})
                    .expect("campaign succeeds");
                assert!(!outcome.state_recovered, "{key}");
            }
            // Rep's averages and Evolve's history change a little per
            // launch, so most saves append to a log.
            let newest = *tee.sharded.version_numbers(&key).last().expect("a base");
            assert!(newest <= 3, "{key}: {newest} bases for 11 saves");
        }
    }
    assert_eq!(tee.sharded.metrics().snapshot().recoveries, 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stored_state_never_overrides_the_configured_threshold() {
    let bench = workloads::by_name("search").expect("bundled workload");
    let store = MemoryStore::new();
    let oracle = DefaultOracle::for_bench(&bench, EvolveConfig::default().sample_interval_cycles);
    let run = |config: CampaignConfig| {
        Campaign::new(&bench, config.model_key("search/evolve"))
            .expect("campaign")
            .run_with_sink(&oracle, Some(&store), &mut |_: &RunRecord| {})
            .expect("campaign succeeds")
    };
    let learned = run(CampaignConfig::new(Scenario::Evolve).runs(10).seed(5));
    assert!(
        learned.records.iter().any(|r| r.predicted),
        "the default threshold lets the learned model predict"
    );
    // `conf > 1.0` can never hold, whatever the stored tracker says.
    let mut strict = CampaignConfig::new(Scenario::Evolve).runs(5).seed(6);
    strict.evolve = strict.evolve.with_threshold(1.0);
    let outcome = run(strict);
    assert!(!outcome.state_recovered);
    assert_eq!(outcome.records.iter().filter(|r| r.predicted).count(), 0);
}

#[test]
fn stored_rep_state_never_overrides_the_configured_interval() {
    let bench = workloads::by_name("raytracer").expect("bundled workload");
    let config = CampaignConfig::new(Scenario::Rep).runs(6).seed(5);
    let oracle = DefaultOracle::for_bench(&bench, config.evolve.sample_interval_cycles);
    let seed_store = MemoryStore::new();
    Campaign::new(&bench, config.clone().model_key("seed"))
        .expect("campaign")
        .run_with_sink(&oracle, Some(&seed_store), &mut |_: &RunRecord| {})
        .expect("seed campaign succeeds");
    let stored = seed_store.load("seed").expect("seed state");
    let field = "\"sample_interval_cycles\":";
    let at = stored.find(field).expect("an interval") + field.len();
    let end = at + stored[at..].find(['}', ',']).expect("field end");
    let interval = config.evolve.sample_interval_cycles;
    assert_eq!(stored[at..end], interval.to_string());
    let rewritten = format!("{}{}{}", &stored[..at], interval * 4, &stored[end..]);

    let relaunch = |blob: &str| {
        let store = MemoryStore::new();
        store.save("raytracer/rep", blob);
        let outcome = Campaign::new(&bench, config.clone().seed(6).model_key("raytracer/rep"))
            .expect("campaign")
            .run_with_sink(&oracle, Some(&store), &mut |_: &RunRecord| {})
            .expect("campaign succeeds");
        assert!(!outcome.state_recovered);
        outcome.records.iter().map(record_bits).collect::<Vec<_>>()
    };
    assert_eq!(relaunch(&rewritten), relaunch(&stored));
}

#[test]
fn out_of_range_stored_trackers_and_levels_count_as_recoveries() {
    let bench = workloads::by_name("search").expect("bundled workload");
    let config = CampaignConfig::new(Scenario::Evolve).runs(4).seed(3);
    let oracle = DefaultOracle::for_bench(&bench, config.evolve.sample_interval_cycles);
    let seed_store = MemoryStore::new();
    Campaign::new(&bench, config.clone().model_key("seed"))
        .expect("campaign")
        .run_with_sink(&oracle, Some(&seed_store), &mut |_: &RunRecord| {})
        .expect("seed campaign succeeds");
    let stored = seed_store.load("seed").expect("seed state");
    let fresh = Campaign::new(&bench, config.clone())
        .expect("campaign")
        .run_with_sink(&oracle, None, &mut |_: &RunRecord| {})
        .expect("fresh campaign succeeds");

    let tracker_field = |field: &str, value: &str| {
        let at = stored
            .find(&format!("\"{field}\":"))
            .expect("tracker field")
            + field.len()
            + 3;
        let end = at + stored[at..].find([',', '}']).expect("field end");
        format!("{}{value}{}", &stored[..at], &stored[end..])
    };
    let mut unknown_level: EvolveState = serde_json::from_str(&stored).expect("state parses");
    unknown_level.history[1].ideal[0] = 7;
    let hostile = [
        tracker_field("conf", "1e999"),
        tracker_field("conf", "null"),
        tracker_field("conf", "-0.25"),
        tracker_field("conf", "1.5"),
        tracker_field("gamma", "1.5"),
        tracker_field("threshold", "-0.1"),
        serde_json::to_string(&unknown_level).expect("state serializes"),
    ];
    for blob in hostile {
        assert_ne!(blob, stored);
        let store = MemoryStore::new();
        store.save("search/hostile", &blob);
        let outcome = Campaign::new(&bench, config.clone().model_key("search/hostile"))
            .expect("campaign")
            .run_with_sink(&oracle, Some(&store), &mut |_: &RunRecord| {})
            .expect("a hostile blob must not fail the campaign");
        assert!(outcome.state_recovered, "{blob}");
        assert_eq!(store.metrics().snapshot().recoveries, 1, "{blob}");
        assert_eq!(
            outcome.records.iter().map(record_bits).collect::<Vec<_>>(),
            fresh.records.iter().map(record_bits).collect::<Vec<_>>(),
            "{blob}: the recovered campaign is a fresh one"
        );
        // The public import rejects the same blob.
        let mut vm = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
        assert!(vm.import_state(&blob).is_err(), "{blob}");
        assert_eq!(vm.runs_observed(), 0, "{blob}");
    }
}
