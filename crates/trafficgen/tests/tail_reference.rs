//! The two tail producers — `shard_day_records` (million-subs) and
//! `synthesize_long_tail_into` (as-fractions) — share one flow-draw kernel.
//! This file keeps each producer's former loop body as a test-only
//! reference and checks, record for record, that the kernel-backed
//! producers emit exactly what the references emit: on random seeds and
//! populations at test scale, and (`--ignored`, release) at the
//! million-subs default and at 100k tail ASes.
//!
//! The references read the tail through `worldgen::LongTail`'s flat
//! prefix arrays, and keep every other detail of the loops they mirror:
//! the subscriber path still reduces its v4 host `% p.size()` and draws
//! its duration as `u32`.

use flowmon::sink::CollectSink;
use flowmon::{FlowKey, FlowRecord, Scope};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use trafficgen::{
    shard_day_records, shard_day_tasks, synthesize_long_tail_into, LongTailTrafficConfig,
    SportAlloc, SubscriberTrafficConfig,
};
use worldgen::{World, WorldConfig};

const HOUR_US: u64 = 3_600_000_000;
const DAY_US: u64 = 24 * HOUR_US;

/// Subscribers per shard of the subscriber producer.
const SHARD_SIZE: usize = 4_096;

const FLOWS_PER_SUBSCRIBER_DAY: f64 = 3.0;

fn reference_subscriber_src(i: usize, v6: bool) -> IpAddr {
    if v6 {
        IpAddr::V6(Ipv6Addr::from((0x2a0c << 112) | i as u128))
    } else {
        IpAddr::V4(Ipv4Addr::from(0x0a00_0000 | (i as u32 & 0x00ff_ffff)))
    }
}

fn reference_poisson(rng: &mut SmallRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda.min(30.0)).exp();
    let mut n = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p < l || n >= 64 {
            return n;
        }
        n += 1;
    }
}

/// The subscriber producer's former `(day, shard)` loop.
fn reference_shard_day(world: &World, seed: u64, day: u32, shard: usize) -> Vec<FlowRecord> {
    let subs = &world.subscribers;
    let tail = &world.long_tail;
    let lo = shard * SHARD_SIZE;
    let hi = (lo + SHARD_SIZE).min(subs.count);
    let mut rng = SmallRng::seed_from_u64(
        seed.wrapping_add((u64::from(day) + 1).wrapping_mul(0xa076_1d64_78bd_642f))
            .wrapping_add((shard as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
    );
    let day_base = u64::from(day) * DAY_US;
    let mut out = Vec::new();
    for i in lo..hi {
        let profile = subs.profile(i);
        let n = reference_poisson(&mut rng, FLOWS_PER_SUBSCRIBER_DAY * profile.volume_weight);
        for _ in 0..n {
            let asx = &tail.ases[tail.sample_index(&mut rng)];
            let v6 =
                profile.dual_stack && !asx.v6.is_empty() && rng.gen::<f64>() < profile.v6_affinity;
            let dst = if v6 {
                let p = &tail.v6[asx.v6.clone()][rng.gen_range(0..asx.v6.len())];
                let h = 1 + rng.gen_range(0..1_000) as u128;
                IpAddr::V6(p.host(h).unwrap_or(Ipv6Addr::LOCALHOST))
            } else {
                let p = &tail.v4[asx.v4.clone()][rng.gen_range(0..asx.v4.len())];
                let h = (1 + rng.gen_range(0..250)) % p.size();
                IpAddr::V4(p.host(h).unwrap_or(Ipv4Addr::LOCALHOST))
            };
            let start = day_base + rng.gen_range(0..DAY_US);
            let duration = u64::from(rng.gen_range(1..600u32)) * 1_000_000;
            let sport = rng.gen_range(10_000..60_000u16);
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let bytes =
                (40_000.0 * profile.volume_weight * (1.2 * z).exp2()).clamp(200.0, 4e8) as u64;
            let src = reference_subscriber_src(i, v6);
            let key = if rng.gen::<f64>() < 0.1 {
                FlowKey::udp(src, sport, dst, 443)
            } else {
                FlowKey::tcp(src, sport, dst, 443)
            };
            out.push(FlowRecord {
                key,
                start,
                end: start + duration,
                bytes_orig: bytes / 20,
                bytes_reply: bytes,
                packets_orig: 1 + bytes / 30_000,
                packets_reply: 1 + bytes / 1_400,
                scope: Scope::External,
            });
        }
    }
    out
}

/// The long-tail producer's former day loop, unchunked.
fn reference_long_tail_day(
    world: &World,
    config: &LongTailTrafficConfig,
    day: u32,
) -> Vec<FlowRecord> {
    let tail = &world.long_tail;
    let mut rng = SmallRng::seed_from_u64(
        config
            .seed
            .wrapping_add((day as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f)),
    );
    let day_base = day as u64 * DAY_US;
    let mut sports = SportAlloc::new(10_000, day_base);
    let src4: IpAddr = "100.64.255.1".parse().expect("static");
    let src6: IpAddr = "2a00:ffff::1".parse().expect("static");
    let day_jitter = 0.85 + 0.3 * rng.gen::<f64>();
    let per_hour = config.flows_per_day / 24;
    let remainder = config.flows_per_day % 24;
    let mut out = Vec::with_capacity(config.flows_per_day);
    for hour in 0..24u64 {
        let n = per_hour + usize::from((hour as usize) < remainder);
        let hour_base = day_base + hour * HOUR_US;
        for _ in 0..n {
            let asx = &tail.ases[tail.sample_index(&mut rng)];
            let p_v6 = (asx.v6_share * day_jitter).clamp(0.0, 1.0);
            let v6 = !asx.v6.is_empty() && rng.gen::<f64>() < p_v6;
            let dst = if v6 {
                let p = tail.v6[asx.v6.start + rng.gen_range(0..asx.v6.len())];
                IpAddr::V6(
                    p.host(1 + rng.gen_range(0..1_000) as u128)
                        .expect("host fits"),
                )
            } else {
                let p = tail.v4[asx.v4.start + rng.gen_range(0..asx.v4.len())];
                IpAddr::V4(p.host(1 + rng.gen_range(0..250)).expect("host fits"))
            };
            let start = hour_base + rng.gen_range(0..HOUR_US);
            let duration = rng.gen_range(1..600) as u64 * 1_000_000;
            let sport = sports.alloc(start, start + duration);
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen();
            let n = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let bytes = (100_000.0 * (1.3 * n).exp2()).clamp(200.0, 4e8) as u64;
            let key = if rng.gen::<f64>() < 0.1 {
                FlowKey::udp(if v6 { src6 } else { src4 }, sport, dst, 443)
            } else {
                FlowKey::tcp(if v6 { src6 } else { src4 }, sport, dst, 443)
            };
            out.push(FlowRecord {
                key,
                start,
                end: start + duration,
                bytes_orig: bytes / 20,
                bytes_reply: bytes,
                packets_orig: 1 + bytes / 30_000,
                packets_reply: 1 + bytes / 1_400,
                scope: Scope::External,
            });
        }
    }
    out
}

fn tailed_world(seed: u64, ases: usize, subscribers: usize) -> World {
    World::generate(
        &WorldConfig {
            seed,
            num_sites: 200,
            ..WorldConfig::small()
        }
        .with_long_tail(ases)
        .with_subscribers(subscribers),
    )
}

/// Every `(day, shard)` task of the subscriber producer equals the
/// reference; returns the records compared.
fn check_subscribers(world: &World, config: &SubscriberTrafficConfig) -> usize {
    let tasks = shard_day_tasks(world, config);
    let shards = world.subscribers.count.div_ceil(SHARD_SIZE);
    assert_eq!(tasks.len(), config.num_days as usize * shards);
    let mut compared = 0;
    for (day, shard) in tasks {
        let records = shard_day_records(world, config, day, shard);
        assert!(
            records == reference_shard_day(world, config.seed, day, shard),
            "day {day} shard {shard} differs from the reference"
        );
        compared += records.len();
    }
    compared
}

/// The long-tail producer's whole stream equals the references' days in
/// order; returns the records compared.
fn check_long_tail(world: &World, config: &LongTailTrafficConfig) -> usize {
    let mut sink = CollectSink::new();
    synthesize_long_tail_into(world, config, &mut sink);
    let mut at = 0;
    for day in 0..config.num_days {
        let expect = reference_long_tail_day(world, config, day);
        let got = &sink.records[at..(at + expect.len()).min(sink.records.len())];
        assert!(got == expect, "day {day} differs from the reference");
        at += expect.len();
    }
    assert_eq!(at, sink.records.len());
    at
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn kernel_producers_match_their_references(
        world_seed in 0u64..1_000,
        seed in any::<u64>(),
        subscribers in 500usize..12_000,
        ases in 1usize..1_500,
        flows_per_day in 0usize..4_000,
    ) {
        let world = tailed_world(world_seed, ases, subscribers);
        let subs = SubscriberTrafficConfig {
            seed,
            num_days: 2,
            ..SubscriberTrafficConfig::default()
        };
        prop_assert!(check_subscribers(&world, &subs) > 0);
        let tail = LongTailTrafficConfig {
            seed,
            num_days: 2,
            flows_per_day,
            threads: 2,
        };
        prop_assert_eq!(check_long_tail(&world, &tail), 2 * flows_per_day);
    }
}

/// The million-subs scenario's world and stream at its defaults: 1M
/// subscribers over 10k tail ASes, three days, the repro seed.
#[test]
#[ignore = "release scale: 5.3M records; run with --release -- --ignored"]
fn subscriber_producer_matches_reference_at_million_subs_default() {
    let seed = 0x1f6_ad0b;
    let world = tailed_world(seed, 10_000, 1_000_000);
    let config = SubscriberTrafficConfig {
        seed: seed ^ 0x6d69_6c73_7562,
        num_days: 3,
        ..SubscriberTrafficConfig::default()
    };
    let compared = check_subscribers(&world, &config);
    assert!(compared > 5_000_000, "compared {compared}");
}

/// The as-fractions stream of the 100k-AS benchmark: 100k tail ASes,
/// 600k flows a day over three days.
#[test]
#[ignore = "release scale: 1.8M records; run with --release -- --ignored"]
fn long_tail_producer_matches_reference_at_100k_ases() {
    let seed = 0x1f6_ad0b;
    let world = tailed_world(seed, 100_000, 0);
    let config = LongTailTrafficConfig {
        seed: seed ^ 0x6173_6672_6163,
        num_days: 3,
        flows_per_day: 600_000,
        threads: 2,
    };
    assert_eq!(check_long_tail(&world, &config), 1_800_000);
}
