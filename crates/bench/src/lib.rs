//! Shared helpers for the ipv6view benchmarks: small pre-built worlds and
//! inputs reused across benchmark groups so criterion timings measure the
//! algorithm, not world generation.

#![forbid(unsafe_code)]

use flowmon::{FlowRecord, FlowSink};
use flowstore::{DigestSink, PartSet, SpillSink};
use std::path::PathBuf;
use worldgen::{World, WorldConfig};

/// A small benchmark world (1k sites) — enough structure for every pipeline.
pub fn bench_world() -> World {
    World::generate(&WorldConfig {
        num_sites: 1_000,
        ..WorldConfig::small()
    })
}

/// A deterministic hourly IPv6-fraction series with daily + weekly structure.
pub fn bench_series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|t| {
            let tf = t as f64;
            0.6 + 0.2 * (tf * std::f64::consts::TAU / 24.0).sin()
                + 0.05 * (tf * std::f64::consts::TAU / 168.0).cos()
                + 0.02 * ((t * 2654435761) % 97) as f64 / 97.0
        })
        .collect()
}

/// The `flowstore_spill_…` and `flowstore_replay_…` probes of
/// `repro bench-snapshot`: the two halves of spilling one record stream.
/// The spill directory is removed on drop.
pub struct SpillProbe {
    dir: PathBuf,
    records: Vec<FlowRecord>,
}

impl SpillProbe {
    /// A probe over `records`, spilling under a per-process temp directory.
    #[must_use]
    pub fn new(tag: &str, records: Vec<FlowRecord>) -> SpillProbe {
        let dir = std::env::temp_dir().join(format!("{tag}-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SpillProbe { dir, records }
    }

    /// Seal the records as one part per day; returns the part count.
    pub fn write(&self) -> flowstore::Result<usize> {
        let mut sink = SpillSink::new(&self.dir, 0)?;
        sink.accept_batch(&self.records);
        Ok(sink.finish()?.len())
    }

    /// Replay the last [`SpillProbe::write`] into a digest.
    pub fn replay(&self) -> flowstore::Result<u64> {
        let mut digest = DigestSink::new();
        PartSet::open(&self.dir)?.replay_into(&mut digest)?;
        Ok(digest.digest())
    }
}

impl Drop for SpillProbe {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
