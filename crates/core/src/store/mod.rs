//! Persistence for learned cross-run state.
//!
//! A [`ModelStore`] maps opaque string keys to the JSON blobs the
//! optimizer backends export
//! ([`EvolvableVm::export_state`](crate::EvolvableVm::export_state) and
//! the Rep repository). A campaign whose config names a `model_key`
//! restores its state before its first run and saves it after its last,
//! so learning survives across service sessions and processes — the
//! paper's "the VM carries its experience from one deployment to the
//! next" reading of cross-run evolution.
//!
//! Two backends:
//!
//! - [`ShardedStore`] — the durable one: keys hash across shard
//!   subdirectories, every save is a new framed version file, loads
//!   recover past torn or corrupt versions, and compaction prunes
//!   superseded versions.
//! - [`MemoryStore`] — in-process, for tests and embedding.
//!
//! **Persistence is best-effort by contract**: an unwritable directory,
//! a torn write, or a corrupt blob must degrade the next campaign to
//! fresh-start learning, never fail it. Every backend counts its
//! activity in a [`StoreMetrics`] (saves, loads, recoveries,
//! compactions) so recovery events are observable.

mod memory;
mod sharded;

pub use memory::MemoryStore;
pub use sharded::ShardedStore;

use crate::metrics::StoreMetrics;

/// A keyed blob store for serialized optimizer state. Implementations
/// must be thread-safe: the campaign service saves from worker threads.
pub trait ModelStore: std::fmt::Debug + Send + Sync {
    /// Persist `state` under `key`, replacing any previous value.
    fn save(&self, key: &str, state: &str);

    /// The last state saved under `key`, if any.
    fn load(&self, key: &str) -> Option<String>;

    /// Activity counters (saves, loads, recoveries, compactions) for
    /// this store instance.
    fn metrics(&self) -> &StoreMetrics;
}

/// Incremental FNV-1a 64-bit hasher — stable across processes and
/// platforms, unlike `DefaultHasher`, so hashed filenames and shard
/// assignments survive restarts.
#[derive(Debug, Clone)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Fnv1a {
        Fnv1a(Fnv1a::OFFSET)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Fnv1a::PRIME);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of one byte string.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Longest sanitized stem kept before the hash suffix, chosen so the
/// full filename (stem + 17-char hash suffix + version + extension)
/// stays well under every mainstream filesystem's 255-byte limit.
const MAX_STEM_LEN: usize = 120;

/// Collision-free filename stem for `key`: the key sanitized to a
/// conservative filename alphabet (everything else becomes `_`) and
/// truncated to a filesystem-safe length, plus the full FNV-1a hash of
/// the *raw* key, so `mtrt/evolve` and `mtrt_evolve` land in different
/// files and arbitrarily long keys stay within filename limits.
pub(crate) fn file_stem(key: &str) -> String {
    let stem: String = key
        .chars()
        .take(MAX_STEM_LEN)
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{stem}-{:016x}", fnv1a64(key.as_bytes()))
}

/// Write `contents` to `dir/file_name` atomically: write a uniquely
/// named temp file in the same directory, then `rename` over the final
/// path. A crash mid-write leaves only an orphan temp file, never a
/// truncated destination; readers see either the old bytes or the new
/// bytes, nothing in between.
pub(crate) fn write_atomic(
    dir: &std::path::Path,
    file_name: &str,
    contents: &[u8],
) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!("{file_name}.tmp-{}-{seq}", std::process::id()));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, dir.join(file_name)).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_are_object_safe_and_sync() {
        fn assert_store<T: ModelStore>() {}
        assert_store::<MemoryStore>();
        assert_store::<ShardedStore>();
        let _: Option<Box<dyn ModelStore>> = None;
    }

    #[test]
    fn file_stems_distinguish_colliding_keys() {
        // Sanitization maps both keys to `mtrt_evolve`; the hash suffix
        // must keep them apart.
        let sanitized = |key: &str| file_stem(key)[..key.len()].to_owned();
        assert_eq!(sanitized("mtrt/evolve"), sanitized("mtrt_evolve"));
        assert_ne!(file_stem("mtrt/evolve"), file_stem("mtrt_evolve"));
    }

    #[test]
    fn file_stems_bound_length() {
        let long = "k".repeat(4096);
        let stem = file_stem(&long);
        assert!(stem.len() <= MAX_STEM_LEN + 17);
        // Distinct long keys sharing a truncated prefix still differ.
        let long2 = format!("{}x", "k".repeat(4096));
        assert_ne!(stem, file_stem(&long2));
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so on-disk layouts never silently move between builds.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
