//! Pure scheduling and oracle-sharing logic for the
//! [`CampaignService`](crate::CampaignService):
//!
//! - **Model-key serialization** — campaigns that persist under the same
//!   `model_key` are state-coupled through the store and must execute
//!   one at a time, in submission order ([`KeyLanes`]).
//! - **Oracle sharing** — campaigns targeting the same bench *content*
//!   at the same sampling interval share one memoized
//!   [`DefaultOracle`], so each baseline run executes once per session
//!   ([`bench_fingerprint`] + [`OracleCache`]).
//!
//! Everything here is deterministic and independent of thread timing:
//! the decisions depend only on submission order and content, which is
//! what makes a service-driven session bit-identical to running its
//! campaigns one after another.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::app::Bench;
use crate::oracle::DefaultOracle;

/// Incremental model-key serialization: at most one job per key is
/// *admitted* (runnable) at a time; later jobs for the same key park in
/// that key's lane, FIFO, until [`release`](KeyLanes::release) frees the
/// lane. Fed submissions in arrival order, admission order per key is
/// exactly arrival order — each key's jobs form one chain in submission
/// order (proved against a batch partition by a unit test below).
///
/// Keyless jobs are never parked.
#[derive(Debug)]
pub struct KeyLanes<T> {
    /// An entry's presence marks the key *busy* (one job admitted but
    /// not yet released); the deque holds its parked followers.
    lanes: HashMap<String, VecDeque<T>>,
}

impl<T> Default for KeyLanes<T> {
    fn default() -> KeyLanes<T> {
        KeyLanes {
            lanes: HashMap::new(),
        }
    }
}

impl<T> KeyLanes<T> {
    /// An empty lane set.
    pub fn new() -> KeyLanes<T> {
        KeyLanes::default()
    }

    /// Offer `job` for admission. Returns the job back when it may run
    /// now (keyless, or its key was idle — the key becomes busy);
    /// returns `None` when the key is busy and the job was parked.
    pub fn admit(&mut self, key: Option<&str>, job: T) -> Option<T> {
        let Some(key) = key else { return Some(job) };
        match self.lanes.entry(key.to_owned()) {
            Entry::Occupied(mut lane) => {
                lane.get_mut().push_back(job);
                None
            }
            Entry::Vacant(lane) => {
                lane.insert(VecDeque::new());
                Some(job)
            }
        }
    }

    /// Mark the admitted job for `key` finished. Returns the next parked
    /// job for that key (which is thereby admitted — the key stays
    /// busy), or `None` when the lane emptied (the key becomes idle).
    /// Keyless and unknown keys release nothing.
    pub fn release(&mut self, key: Option<&str>) -> Option<T> {
        let key = key?;
        let lane = self.lanes.get_mut(key)?;
        match lane.pop_front() {
            Some(job) => Some(job),
            None => {
                self.lanes.remove(key);
                None
            }
        }
    }

    /// Remove and return every parked job (used by abort-style shutdown
    /// to cancel work that never started). Busy markers stay in place so
    /// in-flight jobs can still [`release`](KeyLanes::release) cleanly.
    pub fn drain_parked(&mut self) -> Vec<T> {
        let mut drained = Vec::new();
        for lane in self.lanes.values_mut() {
            drained.extend(lane.drain(..));
        }
        drained
    }

    /// Number of parked jobs across all lanes.
    #[cfg(test)]
    pub fn parked(&self) -> usize {
        self.lanes.values().map(VecDeque::len).sum()
    }
}

/// A stable content identity for a [`Bench`]: name, input count, and
/// every input's command line, virtual files, and program size. Inputs
/// are compiled deterministically from (args, vfs), so benches with
/// equal fingerprints produce equal baseline cycle counts — which is
/// what lets separately loaded copies of one workload share an oracle.
pub fn bench_fingerprint(bench: &Bench) -> u64 {
    let mut h = crate::store::Fnv1a::new();
    h.update(bench.name.as_bytes());
    h.update(&[0xff]);
    h.update(&(bench.inputs.len() as u64).to_le_bytes());
    for input in &bench.inputs {
        for arg in &input.args {
            h.update(arg.as_bytes());
            h.update(&[0xfe]);
        }
        let mut paths: Vec<&str> = input.vfs.paths().collect();
        paths.sort_unstable();
        for path in paths {
            h.update(path.as_bytes());
            h.update(&input.vfs.size(path).unwrap_or(0).to_le_bytes());
        }
        h.update(&(input.program.functions().len() as u64).to_le_bytes());
        h.update(&[0xfd]);
    }
    h.finish()
}

/// Session-scoped oracle sharing, keyed by ([`bench_fingerprint`],
/// sampling interval): the first request for a (bench content, interval)
/// pair creates an empty memoized [`DefaultOracle`]; later requests —
/// from any thread, at any time — get the same oracle, so each
/// baseline run executes once for the cache's lifetime.
///
/// Oracles are created in the default dispatch mode regardless of the
/// requesting campaign's `interp` setting: both dispatch loops produce
/// identical baseline cycle counts (`tests/interp_equiv.rs`), so the
/// memo is shareable across modes.
#[derive(Debug, Default)]
pub struct OracleCache {
    oracles: Mutex<HashMap<(u64, u64), Arc<DefaultOracle>>>,
}

impl OracleCache {
    /// An empty cache.
    pub fn new() -> OracleCache {
        OracleCache::default()
    }

    /// The shared oracle for `bench` at `sample_interval_cycles`,
    /// creating it on first request.
    pub fn oracle_for(&self, bench: &Bench, sample_interval_cycles: u64) -> Arc<DefaultOracle> {
        let key = (bench_fingerprint(bench), sample_interval_cycles);
        Arc::clone(
            self.oracles
                .lock()
                .entry(key)
                .or_insert_with(|| Arc::new(DefaultOracle::for_bench(bench, key.1))),
        )
    }

    /// Number of distinct (bench content, interval) oracles held.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.oracles.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evovm_xicl::{extract::Registry, Translator, XiclSpec};

    /// Batch reference for [`KeyLanes`]: partition submission indices
    /// into schedulable units. Submissions sharing a persistence key
    /// form one unit in submission order; every keyless submission is
    /// its own unit.
    fn schedule_units<'a, I>(keys: I) -> Vec<Vec<usize>>
    where
        I: IntoIterator<Item = Option<&'a str>>,
    {
        let mut units: Vec<Vec<usize>> = Vec::new();
        let mut unit_by_key: HashMap<&str, usize> = HashMap::new();
        for (index, key) in keys.into_iter().enumerate() {
            match key {
                Some(key) => match unit_by_key.get(key) {
                    Some(&unit) => units[unit].push(index),
                    None => {
                        unit_by_key.insert(key, units.len());
                        units.push(vec![index]);
                    }
                },
                None => units.push(vec![index]),
            }
        }
        units
    }

    fn synthetic_bench(name: &str) -> Bench {
        Bench {
            name: name.into(),
            translator: Translator::new(XiclSpec::default(), Registry::new()),
            inputs: Vec::new(),
        }
    }

    #[test]
    fn units_chain_shared_keys_in_order() {
        let keys = [Some("a"), None, Some("b"), Some("a")];
        assert_eq!(
            schedule_units(keys.into_iter()),
            vec![vec![0, 3], vec![1], vec![2]]
        );
        // Keyless submissions couple nothing.
        assert_eq!(
            schedule_units(keys.iter().map(|_| None)),
            vec![vec![0], vec![1], vec![2], vec![3]]
        );
    }

    #[test]
    fn key_lanes_admit_in_arrival_order_one_at_a_time() {
        let mut lanes: KeyLanes<usize> = KeyLanes::new();
        assert_eq!(lanes.admit(Some("a"), 0), Some(0));
        assert_eq!(lanes.admit(None, 1), Some(1));
        assert_eq!(lanes.admit(Some("b"), 2), Some(2));
        assert_eq!(lanes.admit(Some("a"), 3), None, "key a busy: parked");
        assert_eq!(lanes.parked(), 1);
        // Finishing 0 admits its parked follower; finishing that empties
        // the lane.
        assert_eq!(lanes.release(Some("a")), Some(3));
        assert_eq!(lanes.release(Some("a")), None);
        assert_eq!(lanes.release(Some("b")), None);
        assert_eq!(lanes.release(None), None);
        assert_eq!(lanes.parked(), 0);
        // Idle again: a new "a" job runs immediately.
        assert_eq!(lanes.admit(Some("a"), 4), Some(4));
    }

    #[test]
    fn key_lanes_match_batch_units() {
        // Feeding arrivals through KeyLanes and completing jobs in any
        // order reproduces schedule_units' per-key chains.
        let keys = [Some("a"), Some("b"), Some("a"), None, Some("a")];
        let units = schedule_units(keys.iter().copied());

        let mut lanes: KeyLanes<usize> = KeyLanes::new();
        let mut admitted: Vec<usize> = Vec::new();
        for (index, key) in keys.iter().enumerate() {
            if let Some(job) = lanes.admit(*key, index) {
                admitted.push(job);
            }
        }
        // Complete admitted jobs until everything ran; record per-key
        // execution order.
        let mut order_by_key: HashMap<Option<&str>, Vec<usize>> = HashMap::new();
        let mut frontier = admitted;
        while let Some(index) = frontier.pop() {
            order_by_key.entry(keys[index]).or_default().push(index);
            if let Some(next) = lanes.release(keys[index]) {
                frontier.push(next);
            }
        }
        for unit in units {
            let key = keys[unit[0]];
            if key.is_some() {
                assert_eq!(order_by_key[&key], unit, "chain for {key:?}");
            }
        }
    }

    #[test]
    fn drain_parked_keeps_busy_markers() {
        let mut lanes: KeyLanes<usize> = KeyLanes::new();
        assert_eq!(lanes.admit(Some("a"), 0), Some(0));
        assert_eq!(lanes.admit(Some("a"), 1), None);
        assert_eq!(lanes.admit(Some("a"), 2), None);
        assert_eq!(lanes.drain_parked(), vec![1, 2]);
        assert_eq!(lanes.parked(), 0);
        // The in-flight job (0) still releases cleanly afterwards.
        assert_eq!(lanes.release(Some("a")), None);
    }

    #[test]
    fn oracle_cache_shares_by_content() {
        let cache = OracleCache::new();
        // Two separately constructed but identical benches share one
        // oracle; a different interval or name gets its own.
        let a1 = cache.oracle_for(&synthetic_bench("w"), 1000);
        let a2 = cache.oracle_for(&synthetic_bench("w"), 1000);
        assert!(Arc::ptr_eq(&a1, &a2));
        let b = cache.oracle_for(&synthetic_bench("w"), 2000);
        assert!(!Arc::ptr_eq(&a1, &b));
        let c = cache.oracle_for(&synthetic_bench("x"), 1000);
        assert!(!Arc::ptr_eq(&a1, &c));
        assert_eq!(cache.len(), 3);
    }
}
