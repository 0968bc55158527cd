//! The sharded, versioned, crash-safe [`ModelStore`] backend.
//!
//! The production store for the north star's "millions of per-program
//! learned models": keys hash across 16 shard subdirectories so no
//! single directory grows unbounded, and a key's state is a checksummed
//! *base* version file plus an append-only *log* of checksummed records
//! against it. Every frame carries its length and checksum, so a torn
//! write (power loss, `kill -9` mid-append, a copy truncated in transit)
//! is *detected* at load time: a torn log record is ignored, and a torn
//! base is skipped in favour of the newest intact predecessor — corrupt
//! state degrades to older state, and only then to fresh-start.
//!
//! ## On-disk layout
//!
//! ```text
//! root/
//!   shard-007/
//!     mtrt_evolve-9bb90c63ffe3fd08.v1.json     (framed base)
//!     mtrt_evolve-9bb90c63ffe3fd08.v2.json
//!     mtrt_evolve-9bb90c63ffe3fd08.v2.log      (records against v2)
//!   shard-012/
//!     ...
//! ```
//!
//! The shard index is `fnv1a64(key) % 16`; the file stem is the
//! sanitized key plus the raw key's hash (collision-free, see
//! [`super::file_stem`]). A base file holds one header line
//! `evovm1 <payload-len> <fnv1a64-of-payload>` followed by the payload.
//! Its log, `stem.vN.log` next to `stem.vN.json`, is a sequence of
//! records, each a header line
//! `evovm1r <parent-digest> <kept> <suffix-len> <checksum>` followed by
//! the suffix bytes. A record turns a state into that state's first
//! `kept` bytes followed by the suffix. Its checksum (FNV-1a 64) covers
//! the parent digest, `kept` and the suffix.
//!
//! Every state has a *digest* that names how it was built: a base's
//! digest is its payload checksum, and the state a record builds has the
//! record's checksum as its digest. A record applies only to the state
//! whose digest is its parent digest. Since a record's checksum covers
//! its parent digest, equal digests mean equal states, yet no load or
//! save ever hashes a whole state twice.
//!
//! ## Write path
//!
//! `save` starts from the key's current state. When the new payload
//! mostly repeats it — at least half of the payload is a prefix of the
//! current state, as when a learner's history grows by one row — the
//! save appends one record to the current base's log, in one `O_APPEND`
//! write. Appending to an existing file costs a few microseconds, where
//! creating one costs tens to hundreds, whatever its size. The save
//! writes a new base version instead when the payload shares less, when
//! the key has no intact base, when a newer base is damaged, when the
//! log ends in a torn or damaged record, or when the record would make
//! the log longer than its base. That last rule folds the log into a
//! fresh base after at most a base's worth of appended bytes, so a load
//! reads at most twice the state's size, with no tuning constant.
//!
//! A new base picks `max(existing versions, in-process counter) + 1`,
//! writes a temp file in the shard directory, then `rename`s it to its
//! final versioned name — readers never observe a partial base. When a
//! key's base count exceeds its cap of 4, the save triggers an
//! automatic per-key compaction that prunes every base below the newest
//! intact one, together with its log. It removes a base before its log.
//!
//! ## Read path and recovery
//!
//! `load` takes the newest intact base and applies its log's records in
//! order. It stops at the first incomplete frame without counting a
//! recovery, because another writer's append may still be in flight. A
//! complete record whose checksum fails is skipped and counts one
//! recovery; the records after it, which name the state it would have
//! built, are skipped with it, and the next save writes a new base. A
//! record whose parent digest is not the digest of the state built so
//! far is skipped without a recovery. That is what two writers in two
//! processes leave when both append against the same state: the first
//! record in the log wins, the other is ignored, and the losing writer's
//! next save appends against the winner's state (or writes a new base).
//! A writer that appends to a base another process has just superseded
//! loses that save the same way; compaction removes the orphaned log.
//! Persistence is best-effort, never torn.
//!
//! ## Current states in memory
//!
//! Each store keeps the current state of the keys it loaded or saved
//! last (a bounded, least-recently-used set). A load or save reuses it
//! instead of reading and verifying the files again as long as no newer
//! base exists (a save always writes the next version number) and the
//! base and log still have the length and modification time they had
//! when this store read or wrote them. Store files are only ever
//! renamed into place or appended to, so another process's save, fold
//! or torn append changes one of these, and the next load or save reads
//! from disk. A file rewritten in place to the same length within one
//! modification-time tick would go unnoticed by the store that read it;
//! no writer of this format does that.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::time::SystemTime;

use crate::metrics::StoreMetrics;

use super::{file_stem, fnv1a64, write_atomic, Fnv1a, ModelStore};

/// Number of shard subdirectories.
const SHARDS: usize = 16;

/// Per-key base version count past which a save auto-compacts.
const VERSION_CAP: usize = 4;

/// How many keys' current states one store keeps in memory (see
/// [`ShardedStore`]'s `heads`).
const HEADS: usize = 32;

/// A sharded, versioned, crash-safe directory store.
#[derive(Debug)]
pub struct ShardedStore {
    root: PathBuf,
    /// Highest version this process has assigned per file stem; keeps
    /// same-process writers from racing to one version number even
    /// before their renames land.
    counters: Mutex<HashMap<String, u64>>,
    /// The current state of the keys this store loaded or saved last,
    /// least recently used first, at most [`HEADS`] of them. A save
    /// appends against it and a load returns it without reading the
    /// files again, as long as the key's newest base and its log are
    /// still the files it was built from.
    heads: Mutex<Vec<(String, Head)>>,
    metrics: StoreMetrics,
}

/// A key's current state: its newest intact base with that base's log
/// applied, and the identity of the files it was built from.
#[derive(Debug)]
struct Head {
    /// The base's version number.
    version: u64,
    /// The base file as read.
    base: FileId,
    /// The log as read, `None` when the base has no log yet.
    log: Option<FileId>,
    /// Whether a save may append to the log: the base is the newest one
    /// listed, and the log is empty or ends on an intact record.
    appendable: bool,
    /// The base payload with every applicable log record applied.
    state: String,
    /// The state's chain digest: the base's checksum, or the checksum of
    /// the last record applied.
    digest: u64,
}

/// What a file looked like when it was read or written: a store file is
/// replaced by rename or grown by appends, so either changes this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileId {
    len: u64,
    modified: Option<SystemTime>,
}

impl FileId {
    fn of(metadata: &std::fs::Metadata) -> FileId {
        FileId {
            len: metadata.len(),
            modified: metadata.modified().ok(),
        }
    }

    /// The identity of the file at `path` now, `None` if it is missing.
    fn at(path: &Path) -> Option<FileId> {
        std::fs::metadata(path).ok().map(|m| FileId::of(&m))
    }
}

impl Head {
    /// Whether this state is still what `stem`'s files in `dir` build: no
    /// newer base has been written (a save writes the next version number)
    /// and the base and its log are the files it was built from.
    fn is_current(&self, dir: &Path, stem: &str) -> bool {
        let base = dir.join(format!("{stem}.v{}.json", self.version));
        let next = dir.join(format!("{stem}.v{}.json", self.version + 1));
        FileId::at(&next).is_none()
            && FileId::at(&base) == Some(self.base)
            && FileId::at(&base.with_extension("log")) == self.log
    }

    /// The log record that turns this state into `payload`, with the
    /// digest of the state it builds, when `payload` mostly repeats this
    /// state and the log has room for the record.
    fn record_to(&self, payload: &str) -> Option<(Vec<u8>, u64)> {
        if !self.appendable {
            return None;
        }
        let mut kept = common_prefix(self.state.as_bytes(), payload.as_bytes());
        while !payload.is_char_boundary(kept) {
            kept -= 1;
        }
        let suffix = &payload[kept..];
        if kept < suffix.len() {
            return None;
        }
        let (record, digest) = frame_record(self.digest, kept, suffix);
        let log_len = self.log.map_or(0, |log| log.len);
        (log_len + record.len() as u64 <= self.base.len).then_some((record, digest))
    }
}

/// The length of the longest common prefix of `a` and `b`, compared a
/// block at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    const BLOCK: usize = 64;
    let blocks = a.chunks(BLOCK).zip(b.chunks(BLOCK));
    let same = (blocks.take_while(|(x, y)| x == y).count() * BLOCK).min(a.len().min(b.len()));
    same + a[same..]
        .iter()
        .zip(&b[same..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// What reading one listed base found.
enum BaseRead {
    /// The base is intact; its log applied as far as it goes, with the
    /// number of damaged records met.
    Intact(Head, u64),
    /// The base (or its log, with the base) disappeared after listing.
    Vanished,
    /// The base is unreadable or fails its frame check.
    Damaged,
}

impl ShardedStore {
    /// A store rooted at `root`, over 16 shards, auto-compacting a key
    /// past 4 base versions. Directories are created on first save.
    pub fn new(root: impl Into<PathBuf>) -> ShardedStore {
        ShardedStore {
            root: root.into(),
            counters: Mutex::new(HashMap::new()),
            heads: Mutex::new(Vec::new()),
            metrics: StoreMetrics::new(),
        }
    }

    fn shard_dir(&self, key: &str) -> PathBuf {
        let shard = (fnv1a64(key.as_bytes()) as usize) % SHARDS;
        self.root.join(format!("shard-{shard:03}"))
    }

    /// The base version numbers currently on disk for `key`, ascending.
    /// (Diagnostic; includes corrupt versions — only `load` verifies.)
    pub fn version_numbers(&self, key: &str) -> Vec<u64> {
        list_files(&self.shard_dir(key), &file_stem(key))
            .0
            .into_iter()
            .map(|(v, _)| v)
            .collect()
    }

    /// Where base `version` of `key` lives (or would live) on disk; its
    /// log is the same path with the extension `log`. Diagnostic: lets
    /// tools and crash-injection tests inspect or plant files without
    /// re-deriving the shard layout.
    pub fn version_path(&self, key: &str, version: u64) -> PathBuf {
        self.shard_dir(key)
            .join(format!("{}.v{version}.json", file_stem(key)))
    }

    /// Prune every superseded version of every key: for each key the
    /// newest *intact* base and its log are kept, and every other base
    /// and log removed (corrupt newer bases too — they can never be
    /// served — and logs whose base is gone). Returns the number of
    /// files deleted.
    pub fn compact(&self) -> usize {
        let mut pruned = 0;
        for shard in 0..SHARDS {
            let dir = self.root.join(format!("shard-{shard:03}"));
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            // Group bases and logs by stem.
            let mut by_stem: HashMap<String, Listing> = HashMap::new();
            for entry in entries.filter_map(Result::ok) {
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some((stem, version, is_log)) = parse_file_name(&name) {
                    let files = by_stem.entry(stem).or_default();
                    let list = if is_log { &mut files.1 } else { &mut files.0 };
                    list.push((version, entry.path()));
                }
            }
            for (_, (mut bases, logs)) in by_stem {
                bases.sort_unstable_by_key(|(v, _)| *v);
                pruned += prune_superseded(&bases, &logs);
            }
        }
        self.metrics.record_compaction();
        pruned
    }

    /// The current state of `stem`'s key in `dir`: the head this store
    /// kept, if its files are unchanged, else the newest intact base read
    /// from disk with its log applied. Takes the head out of `heads`; the
    /// caller puts it back. Also returns how many recoveries the read met.
    fn current(&self, dir: &Path, stem: &str) -> (Option<Head>, u64) {
        let kept = {
            let mut heads = self.heads.lock();
            let at = heads.iter().position(|(s, _)| s == stem);
            at.map(|at| heads.remove(at).1)
        };
        match kept {
            Some(head) if head.is_current(dir, stem) => (Some(head), 0),
            _ => self.read_newest(|| list_files(dir, stem).0),
        }
    }

    /// Keep `head` as `stem`'s current state, evicting the least recently
    /// used head past [`HEADS`].
    fn keep_head(&self, stem: String, head: Head) {
        let mut heads = self.heads.lock();
        heads.retain(|(s, _)| *s != stem);
        if heads.len() == HEADS {
            heads.remove(0);
        }
        heads.push((stem, head));
    }

    /// The state of the newest intact base among those `list` names,
    /// with its log applied, skipping damaged bases. Also returns how
    /// many recoveries the read met: one per damaged base, plus the
    /// damaged records of the chosen base's log.
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
    fn read_newest(&self, mut list: impl FnMut() -> Vec<(u64, PathBuf)>) -> (Option<Head>, u64) {
        let mut listing = list();
        let mut damaged: Vec<PathBuf> = Vec::new();
        let mut next = listing.len();
        while next > 0 {
            next -= 1;
            let (version, path) = &listing[next];
            match read_base(*version, path) {
                BaseRead::Intact(mut head, bad_records) => {
                    head.appendable &= next + 1 == listing.len();
                    return (Some(head), damaged.len() as u64 + bad_records);
                }
                BaseRead::Vanished => {
                    let fresh = list();
                    if fresh != listing {
                        next = fresh.len();
                        listing = fresh;
                        continue;
                    }
                }
                BaseRead::Damaged => {}
            }
            if !damaged.contains(path) {
                damaged.push(path.clone());
            }
        }
        (None, damaged.len() as u64)
    }

    fn compact_key(&self, key: &str) {
        let (bases, logs) = list_files(&self.shard_dir(key), &file_stem(key));
        prune_superseded(&bases, &logs);
        self.metrics.record_compaction();
    }
}

impl ModelStore for ShardedStore {
    fn save(&self, key: &str, state: &str) {
        // Best-effort, like every backend: an unwritable root degrades
        // to fresh-start on the next load rather than failing the run.
        self.metrics.record_save();
        let dir = self.shard_dir(key);
        let stem = file_stem(key);
        // Recoveries are counted by loads only.
        let (head, _) = self.current(&dir, &stem);
        if let Some(mut head) = head {
            if let Some((record, digest)) = head.record_to(state) {
                let log_path = self.version_path(key, head.version).with_extension("log");
                let grown = head.log.map_or(0, |log| log.len) + record.len() as u64;
                if let Ok(log) = append(&log_path, &record) {
                    // Another writer's append in between leaves the log
                    // longer than this head knows; the next read rebuilds.
                    if log.len == grown {
                        head.log = Some(log);
                        head.state = state.to_owned();
                        head.digest = digest;
                        self.keep_head(stem, head);
                    }
                    return;
                }
            }
        }
        let _ = std::fs::create_dir_all(&dir);
        let version = {
            let mut counters = self.counters.lock();
            let disk_max = list_files(&dir, &stem).0.last().map_or(0, |(v, _)| *v);
            let counter = counters.entry(stem.clone()).or_insert(0);
            *counter = (*counter).max(disk_max) + 1;
            *counter
        };
        let _ = write_atomic(&dir, &format!("{stem}.v{version}.json"), &frame(state));
        if list_files(&dir, &stem).0.len() > VERSION_CAP {
            self.compact_key(key);
        }
    }

    fn load(&self, key: &str) -> Option<String> {
        self.metrics.record_load();
        let dir = self.shard_dir(key);
        let stem = file_stem(key);
        let (head, recoveries) = self.current(&dir, &stem);
        for _ in 0..recoveries {
            self.metrics.record_recovery();
        }
        let head = head?;
        let state = head.state.clone();
        self.keep_head(stem, head);
        Some(state)
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }
}

/// Read a whole file with its identity as read.
fn read_file(path: &Path) -> std::io::Result<(Vec<u8>, FileId)> {
    let mut file = std::fs::File::open(path)?;
    let modified = file.metadata()?.modified().ok();
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let len = bytes.len() as u64;
    Ok((bytes, FileId { len, modified }))
}

/// Read base `version` at `path` and apply its log.
fn read_base(version: u64, path: &Path) -> BaseRead {
    let (bytes, base) = match read_file(path) {
        Ok(read) => read,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return BaseRead::Vanished,
        Err(_) => return BaseRead::Damaged,
    };
    let Some((mut state, mut digest)) = unframe(&bytes) else {
        return BaseRead::Damaged;
    };
    let (records, log, unreadable) = match read_file(&path.with_extension("log")) {
        Ok((records, log)) => (records, Some(log), false),
        // Compaction removes a base before its log: a log gone with its
        // base means the base was superseded after it was read.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && !path.exists() => {
            return BaseRead::Vanished;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Vec::new(), None, false),
        // An unreadable log leaves the base alone, and is never appended to.
        Err(_) => (Vec::new(), None, true),
    };
    let mut damaged = u64::from(unreadable);
    let mut clean = !unreadable;
    let mut rest = &records[..];
    while !rest.is_empty() {
        match parse_record(rest) {
            Record::Incomplete => {
                clean = false;
                break;
            }
            Record::Garbled => {
                clean = false;
                damaged += 1;
                break;
            }
            Record::Bad { len } => {
                clean = false;
                damaged += 1;
                rest = &rest[len..];
            }
            Record::Intact {
                parent,
                kept,
                suffix,
                checksum,
                len,
            } => {
                // A record against another state (another writer's, say)
                // is skipped.
                if parent == digest && state.is_char_boundary(kept) {
                    state.truncate(kept);
                    state.push_str(suffix);
                    digest = checksum;
                }
                rest = &rest[len..];
            }
        }
    }
    BaseRead::Intact(
        Head {
            version,
            base,
            log,
            appendable: clean,
            state,
            digest,
        },
        damaged,
    )
}

/// One frame at the front of a log.
enum Record<'a> {
    /// The frame has not been written in full (yet).
    Incomplete,
    /// The header is not a record header: nothing after it can be framed.
    Garbled,
    /// A complete `len`-byte frame that fails its checksum.
    Bad { len: usize },
    /// A complete, verified `len`-byte frame.
    Intact {
        parent: u64,
        kept: usize,
        suffix: &'a str,
        checksum: u64,
        len: usize,
    },
}

fn parse_record(bytes: &[u8]) -> Record<'_> {
    let Some(newline) = bytes.iter().position(|&b| b == b'\n') else {
        return Record::Incomplete;
    };
    let Some((parent, kept, len, checksum)) = parse_record_header(&bytes[..newline]) else {
        return Record::Garbled;
    };
    let Some(suffix) = bytes[newline + 1..].get(..len) else {
        return Record::Incomplete;
    };
    let len = newline + 1 + len;
    if record_checksum(parent, kept, suffix) != checksum {
        return Record::Bad { len };
    }
    match std::str::from_utf8(suffix) {
        Ok(suffix) => Record::Intact {
            parent,
            kept,
            suffix,
            checksum,
            len,
        },
        Err(_) => Record::Bad { len },
    }
}

/// `evovm1r <parent> <kept> <len> <checksum>` → its four fields.
fn parse_record_header(line: &[u8]) -> Option<(u64, usize, usize, u64)> {
    let mut parts = std::str::from_utf8(line).ok()?.split(' ');
    if parts.next()? != "evovm1r" {
        return None;
    }
    let parent = u64::from_str_radix(parts.next()?, 16).ok()?;
    let kept = parts.next()?.parse().ok()?;
    let len = parts.next()?.parse().ok()?;
    let checksum = u64::from_str_radix(parts.next()?, 16).ok()?;
    parts
        .next()
        .is_none()
        .then_some((parent, kept, len, checksum))
}

/// Frame one log record: its header line, then the suffix bytes. Also
/// returns its checksum.
fn frame_record(parent: u64, kept: usize, suffix: &str) -> (Vec<u8>, u64) {
    let checksum = record_checksum(parent, kept, suffix.as_bytes());
    let mut out = format!(
        "evovm1r {parent:016x} {kept} {} {checksum:016x}\n",
        suffix.len()
    )
    .into_bytes();
    out.extend_from_slice(suffix.as_bytes());
    (out, checksum)
}

/// The checksum of a record, which is also the digest of the state it
/// builds: it covers the parent digest, so it names the whole chain.
fn record_checksum(parent: u64, kept: usize, suffix: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.update(&parent.to_le_bytes());
    hash.update(&(kept as u64).to_le_bytes());
    hash.update(suffix);
    hash.finish()
}

/// Append `record` to the log at `path` in one `O_APPEND` write; returns
/// the log's identity after the write.
fn append(path: &Path, record: &[u8]) -> std::io::Result<FileId> {
    let mut log = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)?;
    log.write_all(record)?;
    Ok(FileId::of(&log.metadata()?))
}

/// Frame `payload` for a base file: a `evovm1 <len> <fnv-16hex>` header
/// line, then the payload bytes.
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

/// Parse and verify a framed base file into its payload and checksum;
/// `None` for anything torn (length mismatch), bit-rotted (checksum
/// mismatch), or malformed.
fn unframe(bytes: &[u8]) -> Option<(String, u64)> {
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
    Some((String::from_utf8(payload.to_vec()).ok()?, checksum))
}

/// `"<stem>.v<version>.json"` → `(stem, version, false)` and
/// `"<stem>.v<version>.log"` → `(stem, version, true)`; `None` for temp
/// files and foreign names.
fn parse_file_name(name: &str) -> Option<(String, u64, bool)> {
    let (rest, is_log) = match name.strip_suffix(".json") {
        Some(rest) => (rest, false),
        None => (name.strip_suffix(".log")?, true),
    };
    let dot_v = rest.rfind(".v")?;
    let version: u64 = rest[dot_v + 2..].parse().ok()?;
    Some((rest[..dot_v].to_string(), version, is_log))
}

/// A key's base files, ascending by version, and its logs.
type Listing = (Vec<(u64, PathBuf)>, Vec<(u64, PathBuf)>);

/// The base files (ascending by version) and logs for `stem` in `dir`.
fn list_files(dir: &Path, stem: &str) -> Listing {
    let mut listing = Listing::default();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return listing;
    };
    for entry in entries.filter_map(Result::ok) {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some((file_stem, version, is_log)) = parse_file_name(&name) {
            if file_stem == stem {
                let list = if is_log {
                    &mut listing.1
                } else {
                    &mut listing.0
                };
                list.push((version, entry.path()));
            }
        }
    }
    listing.0.sort_unstable_by_key(|(v, _)| *v);
    listing
}

/// Keep the newest intact base of one key and its log; delete every
/// other base (older ones *and* corrupt newer ones), then every other
/// log. Bases go first, so a reader that finds a log missing can tell a
/// superseded base from one that has no log yet. Returns files deleted.
fn prune_superseded(bases_ascending: &[(u64, PathBuf)], logs: &[(u64, PathBuf)]) -> usize {
    let keep = bases_ascending.iter().rev().find(|(_, path)| {
        std::fs::read(path)
            .ok()
            .and_then(|bytes| unframe(&bytes))
            .is_some()
    });
    let keep_version = keep.map(|(v, _)| *v);
    bases_ascending
        .iter()
        .chain(logs)
        .filter(|(version, path)| {
            Some(*version) != keep_version && std::fs::remove_file(path).is_ok()
        })
        .count()
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
        let (current, recoveries) = store.read_newest(|| {
            listings += 1;
            if listings == 1 {
                stale.clone()
            } else {
                list_files(&dir, &stem).0
            }
        });
        assert_eq!(current.map(|c| c.state).as_deref(), Some("new"));
        assert_eq!(listings, 2, "the stale listing is replaced once");
        assert_eq!(recoveries, 0);
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
        let (current, recoveries) = store.read_newest(|| {
            listings += 1;
            assert!(listings <= 2, "an unchanged listing is not listed again");
            vec![(1, intact.clone()), (2, missing.clone())]
        });
        assert_eq!(current.map(|c| c.state).as_deref(), Some("old"));
        assert_eq!(listings, 2);
        assert_eq!(recoveries, 1);
        // A torn version named by a stale listing and by the one that
        // replaces it is one recovery, not two.
        let mut listings = 0;
        let (current, recoveries) = store.read_newest(|| {
            listings += 1;
            if listings == 1 {
                vec![(2, missing.clone()), (3, torn.clone())]
            } else {
                vec![(1, intact.clone()), (3, torn.clone())]
            }
        });
        assert_eq!(current.map(|c| c.state).as_deref(), Some("old"));
        assert_eq!(listings, 2);
        assert_eq!(recoveries, 1);
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
    fn growing_payloads_append_until_the_log_outgrows_its_base() {
        let root = temp_root("append");
        let store = ShardedStore::new(&root);
        let mut rows = format!("{{\"rows\":[{}", "0".repeat(400));
        store.save("k", &format!("{rows}]}}"));
        let (base, log) = (
            store.version_path("k", 1),
            store.version_path("k", 1).with_extension("log"),
        );
        let mut appends = 0;
        while store.version_numbers("k") == [1] {
            rows.push_str(",1");
            let state = format!("{rows}]}}");
            store.save("k", &state);
            assert_eq!(store.load("k").as_deref(), Some(state.as_str()));
            appends += 1;
        }
        assert!(appends > 2, "only {appends} saves before the fold");
        let len = |path: &Path| std::fs::metadata(path).map_or(0, |m| m.len());
        assert!(
            len(&log) > 0 && len(&log) <= len(&base),
            "the log never outgrows its base"
        );
        // The fold wrote the whole state as a new base, with no log yet.
        assert_eq!(store.version_numbers("k"), [1, 2]);
        assert!(!store.version_path("k", 2).with_extension("log").exists());
        // A payload that shares little with the state is a new base too.
        store.save("k", "{\"other\":true}");
        assert_eq!(store.version_numbers("k"), [1, 2, 3]);
        assert_eq!(store.load("k").as_deref(), Some("{\"other\":true}"));
        assert_eq!(store.metrics().snapshot().recoveries, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn compaction_prunes_superseded_logs_and_orphans() {
        let root = temp_root("compact-logs");
        let store = ShardedStore::new(&root);
        let grown = |name: &str, n: usize| format!("{{\"{name}\":[{}]}}", "7,".repeat(n));
        store.save("k", &grown("rows", 100));
        store.save("k", &grown("rows", 101));
        store.save("k", &grown("other", 100));
        store.save("k", &grown("other", 101));
        let log = |v| store.version_path("k", v).with_extension("log");
        assert_eq!(store.version_numbers("k"), [1, 2]);
        assert!(log(1).exists() && log(2).exists());
        // An orphan: a log whose base is gone.
        std::fs::write(log(9), "evovm1r").unwrap();
        // v1 with its log, v2 and the orphan; v2 keeps its log.
        assert_eq!(store.compact(), 3);
        assert_eq!(store.version_numbers("k"), [2]);
        assert!(log(2).exists());
        assert_eq!(store.load("k"), Some(grown("other", 101)));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn common_prefixes_are_exact() {
        let long = "ab".repeat(100);
        for cut in 0..long.len() {
            let mut other = long[..cut].to_string();
            other.push('x');
            assert_eq!(common_prefix(long.as_bytes(), other.as_bytes()), cut);
            assert_eq!(common_prefix(&long.as_bytes()[..cut], long.as_bytes()), cut);
        }
        assert_eq!(common_prefix(b"", b"abc"), 0);
        assert_eq!(common_prefix(long.as_bytes(), long.as_bytes()), long.len());
    }

    #[test]
    fn record_frames_reject_tampering() {
        let (record, digest) = frame_record(0xfeed, 3, "tail");
        let Record::Intact {
            parent,
            kept,
            suffix,
            checksum,
            len,
        } = parse_record(&record)
        else {
            panic!("an intact record");
        };
        assert_eq!(
            (parent, kept, suffix, len),
            (0xfeed, 3, "tail", record.len())
        );
        assert_eq!(checksum, digest);
        for cut in 0..record.len() {
            assert!(
                matches!(parse_record(&record[..cut]), Record::Incomplete),
                "cut at {cut}"
            );
        }
        let mut flipped = record.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(matches!(parse_record(&flipped), Record::Bad { len } if len == record.len()));
        assert!(matches!(parse_record(b"garbage\n"), Record::Garbled));
    }

    #[test]
    fn save_past_cap_auto_compacts() {
        let root = temp_root("autocompact");
        let store = ShardedStore::new(&root);
        // Each payload shares too little with the last to append, so each
        // save writes a base.
        for i in 0..=VERSION_CAP {
            store.save("k", &format!("state-{i}"));
        }
        let last = format!("state-{VERSION_CAP}");
        assert_eq!(store.load("k").as_deref(), Some(last.as_str()));
        assert!(
            store.version_numbers("k").len() <= VERSION_CAP,
            "cap must bound the version count, got {:?}",
            store.version_numbers("k")
        );
        assert!(store.metrics().snapshot().compactions >= 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn saves_leave_no_temp_files() {
        let root = temp_root("tmp");
        let store = ShardedStore::new(&root);
        // Saves up to the cap, then one past it that auto-compacts.
        for i in 0..=VERSION_CAP {
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
        let store = ShardedStore::new(&root);
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
        let store = ShardedStore::new(&root);
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
        let payload = |bytes: &[u8]| unframe(bytes).map(|(payload, _)| payload);
        assert_eq!(payload(&frame("hello")).as_deref(), Some("hello"));
        assert_eq!(
            unframe(&frame("hello")).map(|(_, sum)| sum),
            Some(fnv1a64(b"hello"))
        );
        assert_eq!(unframe(b"not a frame"), None);
        let mut torn = frame("hello");
        torn.pop();
        assert_eq!(unframe(&torn), None);
        let mut flipped = frame("hello");
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert_eq!(unframe(&flipped), None);
        // Empty payload frames cleanly.
        assert_eq!(payload(&frame("")).as_deref(), Some(""));
    }

    #[test]
    fn version_names_parse_strictly() {
        assert_eq!(
            parse_file_name("a-ff.v3.json"),
            Some(("a-ff".into(), 3, false))
        );
        assert_eq!(
            parse_file_name("a-ff.v3.log"),
            Some(("a-ff".into(), 3, true))
        );
        assert_eq!(parse_file_name("a-ff.v3.json.tmp-1-2"), None);
        assert_eq!(parse_file_name("a-ff.vx.json"), None);
        assert_eq!(parse_file_name("a-ff.json"), None);
        assert_eq!(parse_file_name("a-ff.log"), None);
    }
}
