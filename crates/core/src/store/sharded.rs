//! The sharded, versioned, crash-safe [`ModelStore`] backend.
//!
//! The production store for the north star's "millions of per-program
//! learned models": keys hash across `N` shard subdirectories so no
//! single directory grows unbounded, every save appends a new
//! monotonically-versioned file instead of overwriting, and every file
//! is framed with its length and checksum so a torn write (power loss,
//! `kill -9` mid-rename-source-write, a copy truncated in transit) is
//! *detected* at load time and skipped in favour of the newest intact
//! predecessor — corrupt state degrades to older state, and only then
//! to fresh-start.
//!
//! ## On-disk layout
//!
//! ```text
//! root/
//!   shard-007/
//!     mtrt_evolve-9bb90c63ffe3fd08.v1.json     (framed)
//!     mtrt_evolve-9bb90c63ffe3fd08.v2.json
//!   shard-012/
//!     ...
//! ```
//!
//! The shard index is `fnv1a64(key) % shards`; the file stem is the
//! sanitized key plus the raw key's hash (collision-free, see
//! [`super::file_stem`]). Each version file holds one header line
//! `evovm1 <payload-len> <fnv1a64-of-payload>` followed by the payload.
//!
//! ## Write path
//!
//! `save` picks `max(existing versions, in-process counter) + 1`, writes
//! a temp file in the shard directory, then `rename`s it to its final
//! versioned name — readers never observe a partial file under a
//! version name. When a key's version count exceeds the configured cap,
//! the save triggers an automatic per-key compaction that prunes every
//! version below the newest intact one.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;

use crate::metrics::StoreMetrics;

use super::{file_stem, fnv1a64, write_atomic, ModelStore};

/// Default number of shard subdirectories.
const DEFAULT_SHARDS: usize = 16;

/// Default per-key version count past which a save auto-compacts.
const DEFAULT_VERSION_CAP: usize = 4;

/// A sharded, versioned, crash-safe directory store.
#[derive(Debug)]
pub struct ShardedStore {
    root: PathBuf,
    shards: usize,
    version_cap: usize,
    /// Highest version this process has assigned per file stem; keeps
    /// same-process writers from racing to one version number even
    /// before their renames land.
    counters: Mutex<HashMap<String, u64>>,
    metrics: StoreMetrics,
}

impl ShardedStore {
    /// A store rooted at `root` with the default shard count (16) and
    /// per-key version cap (4). Directories are created on first save.
    pub fn new(root: impl Into<PathBuf>) -> ShardedStore {
        ShardedStore {
            root: root.into(),
            shards: DEFAULT_SHARDS,
            version_cap: DEFAULT_VERSION_CAP,
            counters: Mutex::new(HashMap::new()),
            metrics: StoreMetrics::new(),
        }
    }

    /// Set the shard count (clamped to at least 1). Changing the count
    /// of an existing store re-homes keys; use a fresh root instead.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> ShardedStore {
        self.shards = shards.max(1);
        self
    }

    /// Set how many versions of one key may accumulate before a save
    /// auto-compacts them (clamped to at least 1).
    #[must_use]
    pub fn version_cap(mut self, cap: usize) -> ShardedStore {
        self.version_cap = cap.max(1);
        self
    }

    fn shard_dir(&self, key: &str) -> PathBuf {
        let shard = (fnv1a64(key.as_bytes()) as usize) % self.shards;
        self.root.join(format!("shard-{shard:03}"))
    }

    /// The version numbers currently on disk for `key`, ascending.
    /// (Diagnostic; includes corrupt versions — only `load` verifies.)
    pub fn version_numbers(&self, key: &str) -> Vec<u64> {
        list_versions(&self.shard_dir(key), &file_stem(key))
            .into_iter()
            .map(|(v, _)| v)
            .collect()
    }

    /// Where `version` of `key` lives (or would live) on disk.
    /// Diagnostic: lets tools and crash-injection tests inspect or
    /// plant version files without re-deriving the shard layout.
    pub fn version_path(&self, key: &str, version: u64) -> PathBuf {
        self.shard_dir(key)
            .join(format!("{}.v{version}.json", file_stem(key)))
    }

    /// Prune every superseded version of every key: for each key the
    /// newest *intact* version is kept and everything below it removed
    /// (corrupt newer files are removed too — they can never be
    /// served). Returns the number of files deleted.
    pub fn compact(&self) -> usize {
        let mut pruned = 0;
        for shard in 0..self.shards {
            let dir = self.root.join(format!("shard-{shard:03}"));
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            // Group version files by stem.
            let mut by_stem: HashMap<String, Vec<(u64, PathBuf)>> = HashMap::new();
            for entry in entries.filter_map(Result::ok) {
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some((stem, version)) = parse_version_name(&name) {
                    by_stem
                        .entry(stem)
                        .or_default()
                        .push((version, entry.path()));
                }
            }
            for (_, mut versions) in by_stem {
                versions.sort_unstable_by_key(|(v, _)| *v);
                pruned += prune_superseded(&versions);
            }
        }
        self.metrics.record_compaction();
        pruned
    }

    /// The newest intact version among those `list` names, skipping
    /// damaged ones; each damaged version counts as one recovery.
    ///
    /// A listed file can vanish before it is read: a concurrent save
    /// compacts superseded versions, and only after it has written a
    /// newer one. A vanished file therefore means the listing may be
    /// stale, not that the state is damaged, so the key is listed again
    /// and the scan restarts from the new listing's newest version. A
    /// listing that comes back unchanged is settled: a file it still
    /// names but cannot read (a dangling link, say) is damaged and
    /// skipped like a torn one. So the loop ends once the directory
    /// stops changing, and a version seen by several listings is
    /// counted once.
    fn read_newest(&self, mut list: impl FnMut() -> Vec<(u64, PathBuf)>) -> Option<String> {
        let mut listing = list();
        let mut damaged: Vec<PathBuf> = Vec::new();
        let mut next = listing.len();
        while next > 0 {
            next -= 1;
            let path = &listing[next].1;
            match std::fs::read(path) {
                Ok(bytes) => {
                    if let Some(state) = unframe(&bytes) {
                        return Some(state);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    let fresh = list();
                    if fresh != listing {
                        next = fresh.len();
                        listing = fresh;
                        continue;
                    }
                }
                Err(_) => {}
            }
            if !damaged.contains(path) {
                damaged.push(path.clone());
                self.metrics.record_recovery();
            }
        }
        None
    }

    fn compact_key(&self, key: &str) {
        let versions = list_versions(&self.shard_dir(key), &file_stem(key));
        prune_superseded(&versions);
        self.metrics.record_compaction();
    }
}

impl ModelStore for ShardedStore {
    fn save(&self, key: &str, state: &str) {
        // Best-effort, like every backend: an unwritable root degrades
        // to fresh-start on the next load rather than failing the run.
        self.metrics.record_save();
        let dir = self.shard_dir(key);
        let _ = std::fs::create_dir_all(&dir);
        let stem = file_stem(key);
        let version = {
            let mut counters = self.counters.lock();
            let disk_max = list_versions(&dir, &stem).last().map_or(0, |(v, _)| *v);
            let counter = counters.entry(stem.clone()).or_insert(0);
            *counter = (*counter).max(disk_max) + 1;
            *counter
        };
        let _ = write_atomic(&dir, &format!("{stem}.v{version}.json"), &frame(state));
        if list_versions(&dir, &stem).len() > self.version_cap {
            self.compact_key(key);
        }
    }

    fn load(&self, key: &str) -> Option<String> {
        self.metrics.record_load();
        let dir = self.shard_dir(key);
        let stem = file_stem(key);
        self.read_newest(|| list_versions(&dir, &stem))
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }
}

/// Frame `payload` for a version file: a `evovm1 <len> <fnv-16hex>`
/// header line, then the payload bytes.
fn frame(payload: &str) -> Vec<u8> {
    let mut out = format!(
        "evovm1 {} {:016x}\n",
        payload.len(),
        fnv1a64(payload.as_bytes())
    )
    .into_bytes();
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Parse and verify a framed version file; `None` for anything torn
/// (length mismatch), bit-rotted (checksum mismatch), or malformed.
fn unframe(bytes: &[u8]) -> Option<String> {
    let newline = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..newline]).ok()?;
    let payload = &bytes[newline + 1..];
    let mut parts = header.split(' ');
    if parts.next()? != "evovm1" {
        return None;
    }
    let len: usize = parts.next()?.parse().ok()?;
    let checksum = u64::from_str_radix(parts.next()?, 16).ok()?;
    if parts.next().is_some() || payload.len() != len || fnv1a64(payload) != checksum {
        return None;
    }
    String::from_utf8(payload.to_vec()).ok()
}

/// `"<stem>.v<version>.json"` → `(stem, version)`; `None` for temp
/// files and foreign names.
fn parse_version_name(name: &str) -> Option<(String, u64)> {
    let rest = name.strip_suffix(".json")?;
    let dot_v = rest.rfind(".v")?;
    let version: u64 = rest[dot_v + 2..].parse().ok()?;
    Some((rest[..dot_v].to_string(), version))
}

/// The version files for `stem` in `dir`, ascending by version.
fn list_versions(dir: &std::path::Path, stem: &str) -> Vec<(u64, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut versions: Vec<(u64, PathBuf)> = entries
        .filter_map(Result::ok)
        .filter_map(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            let (file_stem, version) = parse_version_name(&name)?;
            (file_stem == stem).then(|| (version, entry.path()))
        })
        .collect();
    versions.sort_unstable_by_key(|(v, _)| *v);
    versions
}

/// Keep the newest intact version of one key, delete everything else
/// (older versions *and* corrupt newer ones). Returns files deleted.
fn prune_superseded(versions_ascending: &[(u64, PathBuf)]) -> usize {
    let keep = versions_ascending.iter().rev().find(|(_, path)| {
        std::fs::read(path)
            .ok()
            .and_then(|bytes| unframe(&bytes))
            .is_some()
    });
    let keep_version = keep.map(|(v, _)| *v);
    let mut pruned = 0;
    for (version, path) in versions_ascending {
        if Some(*version) != keep_version && std::fs::remove_file(path).is_ok() {
            pruned += 1;
        }
    }
    pruned
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("evovm-sharded-{tag}-{}", std::process::id()))
    }

    #[test]
    fn round_trips_with_versioned_writes() {
        let root = temp_root("roundtrip");
        let store = ShardedStore::new(&root);
        assert_eq!(store.load("k"), None);
        store.save("k", "one");
        store.save("k", "two");
        assert_eq!(store.load("k").as_deref(), Some("two"));
        assert_eq!(store.version_numbers("k"), vec![1, 2]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_latest_version_recovers_to_previous() {
        let root = temp_root("torn");
        let store = ShardedStore::new(&root);
        store.save("k", "good-state");
        // Simulate a torn write that somehow landed under a version
        // name (e.g. a partial copy from another node): truncated frame.
        let dir = store.shard_dir("k");
        let stem = file_stem("k");
        let full = String::from_utf8(frame("newer-but-torn")).unwrap();
        std::fs::write(dir.join(format!("{stem}.v2.json")), &full[..full.len() - 4]).unwrap();
        assert_eq!(store.load("k").as_deref(), Some("good-state"));
        assert_eq!(store.metrics().snapshot().recoveries, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn vanished_listed_version_relists_to_the_newer_one() {
        let root = temp_root("vanished");
        let store = ShardedStore::new(&root);
        store.save("k", "old");
        store.save("k", "new");
        // A listing taken before a concurrent save compacted v1 away:
        // it names only the vanished file, while the intact v2 is on
        // disk.
        let stale = vec![(1, store.version_path("k", 1))];
        std::fs::remove_file(store.version_path("k", 1)).unwrap();
        let (dir, stem) = (store.shard_dir("k"), file_stem("k"));
        let mut listings = 0;
        let state = store.read_newest(|| {
            listings += 1;
            if listings == 1 {
                stale.clone()
            } else {
                list_versions(&dir, &stem)
            }
        });
        assert_eq!(state.as_deref(), Some("new"));
        assert_eq!(listings, 2, "the stale listing is replaced once");
        assert_eq!(store.metrics().snapshot().recoveries, 0);
        // A key whose every version vanished is simply absent.
        std::fs::remove_file(store.version_path("k", 2)).unwrap();
        assert_eq!(store.load("k"), None);
        assert_eq!(store.metrics().snapshot().recoveries, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn settled_listing_skips_a_missing_file_and_counts_each_damaged_version_once() {
        let root = temp_root("settled");
        let store = ShardedStore::new(&root);
        store.save("k", "old");
        let intact = store.version_path("k", 1);
        let missing = store.version_path("k", 2);
        let torn = store.version_path("k", 3);
        let full = String::from_utf8(frame("torn")).unwrap();
        std::fs::write(&torn, &full[..full.len() - 4]).unwrap();
        // A listing that keeps naming a file that is not there: once it
        // comes back unchanged, the file is skipped as damaged.
        let mut listings = 0;
        let state = store.read_newest(|| {
            listings += 1;
            assert!(listings <= 2, "an unchanged listing is not listed again");
            vec![(1, intact.clone()), (2, missing.clone())]
        });
        assert_eq!(state.as_deref(), Some("old"));
        assert_eq!(listings, 2);
        assert_eq!(store.metrics().snapshot().recoveries, 1);
        // A torn version named by a stale listing and by the one that
        // replaces it is one recovery, not two.
        let mut listings = 0;
        let state = store.read_newest(|| {
            listings += 1;
            if listings == 1 {
                vec![(2, missing.clone()), (3, torn.clone())]
            } else {
                vec![(1, intact.clone()), (3, torn.clone())]
            }
        });
        assert_eq!(state.as_deref(), Some("old"));
        assert_eq!(listings, 2);
        assert_eq!(store.metrics().snapshot().recoveries, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[cfg(unix)]
    #[test]
    fn dangling_version_link_is_skipped_as_damaged() {
        let root = temp_root("dangling");
        let store = ShardedStore::new(&root);
        store.save("k", "good-state");
        std::os::unix::fs::symlink(root.join("nowhere"), store.version_path("k", 2)).unwrap();
        assert_eq!(store.version_numbers("k"), vec![1, 2]);
        assert_eq!(store.load("k").as_deref(), Some("good-state"));
        assert_eq!(store.metrics().snapshot().recoveries, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn save_past_cap_auto_compacts() {
        let root = temp_root("autocompact");
        let store = ShardedStore::new(&root).version_cap(2);
        for i in 0..5 {
            store.save("k", &format!("state-{i}"));
        }
        assert_eq!(store.load("k").as_deref(), Some("state-4"));
        assert!(
            store.version_numbers("k").len() <= 2,
            "cap must bound the version count, got {:?}",
            store.version_numbers("k")
        );
        assert!(store.metrics().snapshot().compactions >= 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn saves_leave_no_temp_files() {
        let root = temp_root("tmp");
        let store = ShardedStore::new(&root).version_cap(2);
        // Two plain saves, then a third past the cap that auto-compacts.
        for i in 0..3 {
            store.save("k", &format!("{{\"v\":{i}}}"));
        }
        assert_eq!(store.metrics().snapshot().compactions, 1);
        let shard = store.shard_dir("k");
        let leftovers: Vec<_> = std::fs::read_dir(&shard)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn compact_prunes_superseded_and_corrupt_versions() {
        let root = temp_root("compact");
        let store = ShardedStore::new(&root).version_cap(100);
        store.save("a", "a1");
        store.save("a", "a2");
        store.save("b", "b1");
        // A corrupt version *above* the intact ones must also go.
        let dir = store.shard_dir("a");
        let stem = file_stem("a");
        std::fs::write(dir.join(format!("{stem}.v9.json")), "garbage").unwrap();
        let pruned = store.compact();
        assert_eq!(pruned, 2, "v1 of `a` and the corrupt v9");
        assert_eq!(store.load("a").as_deref(), Some("a2"));
        assert_eq!(store.load("b").as_deref(), Some("b1"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn keys_spread_across_shards() {
        let root = temp_root("spread");
        let store = ShardedStore::new(&root).shards(8);
        for i in 0..64 {
            store.save(&format!("key-{i}"), "x");
        }
        let shard_dirs = std::fs::read_dir(&root)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with("shard-"))
            .count();
        assert!(shard_dirs > 1, "64 keys should hit multiple shards");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn frame_rejects_tampering() {
        assert_eq!(unframe(&frame("hello")).as_deref(), Some("hello"));
        assert_eq!(unframe(b"not a frame"), None);
        let mut torn = frame("hello");
        torn.pop();
        assert_eq!(unframe(&torn), None);
        let mut flipped = frame("hello");
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert_eq!(unframe(&flipped), None);
        // Empty payload frames cleanly.
        assert_eq!(unframe(&frame("")).as_deref(), Some(""));
    }

    #[test]
    fn version_names_parse_strictly() {
        assert_eq!(parse_version_name("a-ff.v3.json"), Some(("a-ff".into(), 3)));
        assert_eq!(parse_version_name("a-ff.v3.json.tmp-1-2"), None);
        assert_eq!(parse_version_name("a-ff.vx.json"), None);
        assert_eq!(parse_version_name("a-ff.json"), None);
    }
}
