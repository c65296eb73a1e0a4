//! Shared helpers for the ipv6view benchmarks: the [`probes`] catalogue of
//! every ledgered row, plus small pre-built worlds and inputs reused across
//! benchmark groups so criterion timings measure the algorithm, not world
//! generation.

#![forbid(unsafe_code)]

pub mod probes;

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
