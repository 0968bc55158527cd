//! Model-store integration tests: edge-case keys, concurrency, crash
//! injection, and learned-state round-trips through every backend.
//!
//! The persistence contract under test (documented in `evovm::store`):
//! saves are atomic, keys never collide after sanitization, corrupt or
//! torn state degrades to older state and then to fresh-start — never
//! to a failed campaign — and every degradation is counted in the
//! store's metrics.

use std::path::PathBuf;

use evolvable_vm::evovm::{
    Campaign, CampaignConfig, DefaultOracle, EvolvableVm, EvolveConfig, MemoryStore, ModelStore,
    RunRecord, Scenario, ShardedStore,
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
