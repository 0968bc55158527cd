//! Output check: a digest of each campaign's record stream and fork
//! samples.
//!
//! The virtual clock must stay bit-identical, so the digest covers each
//! record's cycles, input index, predicted flag, and speedup and
//! confidence as `to_bits`, plus every fork sample's level and cycles.
//! Fork samples are digested in `(fork index, level)` order because the
//! service replays fork points on whichever worker is free.

use evovm::{ForkSample, RunRecord};

/// FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The pinned identity of one campaign's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignDigest {
    /// Records seen.
    pub records: usize,
    /// Digest of the records, in run order.
    pub records_hash: u64,
    /// Fork samples seen.
    pub samples: usize,
    /// Digest of the fork samples, in `(fork index, level)` order.
    pub samples_hash: u64,
}

/// The virtual cycles a campaign makes the host execute, counted by the
/// direct pass: per run, the oracle baseline it missed plus its VM run;
/// and the remainders of every fork replay. This is the campaign's work
/// in the program's own deterministic unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignWork {
    /// Executed virtual cycles per run, in run order.
    pub run_cycles: Vec<u64>,
    /// Executed virtual cycles of all fork replays.
    pub fork_cycles: u64,
}

impl CampaignWork {
    /// All executed virtual cycles.
    pub fn total(&self) -> u64 {
        self.run_cycles.iter().sum::<u64>() + self.fork_cycles
    }
}

/// What a campaign must produce, pinned by the direct pass.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The output digest.
    pub digest: CampaignDigest,
    /// The work behind it.
    pub work: CampaignWork,
}

/// Accumulates one campaign's stream.
#[derive(Debug)]
pub struct StreamCheck {
    records: usize,
    hash: Fnv,
    samples: Vec<[u64; 6]>,
}

impl Default for StreamCheck {
    fn default() -> StreamCheck {
        StreamCheck {
            records: 0,
            hash: Fnv::new(),
            samples: Vec::new(),
        }
    }
}

impl StreamCheck {
    /// Fold in one record.
    pub fn record(&mut self, record: &RunRecord) {
        self.records += 1;
        for word in [
            record.run_index as u64,
            record.input_index as u64,
            record.cycles,
            u64::from(record.predicted),
            record.speedup.to_bits(),
            record.confidence.to_bits(),
        ] {
            self.hash.word(word);
        }
    }

    /// Fold in one fork sample.
    pub fn fork_sample(&mut self, sample: &ForkSample) {
        self.samples.push([
            sample.fork_index,
            sample.level.as_i8() as u64,
            sample.run_index as u64,
            sample.input_index as u64,
            sample.total_cycles,
            u64::from(sample.chosen),
        ]);
    }

    /// The campaign's digest.
    pub fn finish(mut self) -> CampaignDigest {
        self.samples.sort_unstable();
        let mut samples_hash = Fnv::new();
        for sample in &self.samples {
            for &word in sample {
                samples_hash.word(word);
            }
        }
        CampaignDigest {
            records: self.records,
            records_hash: self.hash.0,
            samples: self.samples.len(),
            samples_hash: samples_hash.0,
        }
    }
}
