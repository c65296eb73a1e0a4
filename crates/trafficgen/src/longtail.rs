//! Streaming traffic synthesis over the long-tail AS population: the
//! producer behind the `repro as-fractions` experiment.
//!
//! Unlike residence synthesis — five rich behavioural profiles over ~40
//! head ASes — the long-tail generator models an aggregation-point view of
//! traffic towards a routing-table-scale AS population
//! ([`worldgen::longtail::LongTail`], typically ~100k ASes): each record
//! picks a destination AS Zipf-weighted, a prefix and host inside that
//! AS's announced space, a family split by the AS's IPv6 share (with
//! per-day jitter, so daily fractions move like the paper's Fig 1), and a
//! lognormal size. Records are pushed straight into the caller's
//! [`FlowSink`] — with a dense per-AS aggregator the whole run holds
//! O(ASes) state however many days are simulated, which is the experiment's
//! memory contract.
//!
//! The determinism contract matches residence synthesis: every day derives
//! its own RNG from `(seed, day)` and is emitted in ascending day order, so
//! output is byte-identical at any `threads` count. Days run on
//! [`obs::par::stream`] and hand their records over in chunks of at most
//! [`LONG_TAIL_CHUNK`], so no path buffers a whole day.
//!
//! Every flow comes from `tail_flow`, the draw this producer shares with
//! the subscriber one ([`crate::subs`]). Here a flow starts within its
//! hour, uses IPv6 with the AS's share times the day's jitter, takes its
//! source port from a per-day [`SportAlloc`], and carries one collapsed
//! source address per family.

use crate::synth::SportAlloc;
use crate::{DAY_US, HOUR_US};
use flowmon::sink::FlowSink;
use flowmon::{FlowKey, FlowRecord, Scope};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::IpAddr;
use std::ops::Range;
use worldgen::longtail::LongTail;
use worldgen::World;

/// The most records one chunk of a day carries to the sink: each in-flight
/// day holds at most [`obs::par::QUEUE_DEPTH`]` + 1` chunks this size.
pub const LONG_TAIL_CHUNK: usize = 8192;

/// Configuration of a long-tail synthesis run.
#[derive(Debug, Clone)]
pub struct LongTailTrafficConfig {
    /// Master seed (per-day RNGs derive from it).
    pub seed: u64,
    /// Days to simulate. Peak memory is independent of this: at most
    /// `2 × threads × (`[`obs::par::QUEUE_DEPTH`]` + 1)` chunks of
    /// [`LONG_TAIL_CHUNK`] records are alive (one chunk at one thread), and
    /// aggregators hold O(ASes).
    pub num_days: u32,
    /// Flow records per simulated day.
    pub flows_per_day: usize,
    /// Day-level workers of [`obs::par::stream`] (1 = inline, with the
    /// sink fed chunk by chunk on the calling thread; output identical at
    /// any count).
    pub threads: usize,
}

impl Default for LongTailTrafficConfig {
    fn default() -> Self {
        LongTailTrafficConfig {
            seed: 0x0100_7a11_a5e5,
            num_days: 3,
            flows_per_day: 200_000,
            threads: 1,
        }
    }
}

/// One flow towards the tail: the draw both tail producers share. It draws,
/// in this order, a tail AS by traffic weight, the family, a prefix and a
/// host in the AS's space, the start in `window`, a duration of 1–599 s,
/// the source port, a lognormal size and then UDP for one flow in ten.
///
/// The arguments are what differs between the producers. `p_v6` maps the
/// AS's IPv6 share to the chance of an IPv6 flow; `None` draws nothing and
/// stays on IPv4. `sport` picks the source port from the RNG and the flow's
/// `(start, end)`. `src` gives the source address of a family (`true` =
/// IPv6). The size is `median_bytes × 2^(spread × z)` for a standard
/// normal `z`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tail_flow(
    rng: &mut SmallRng,
    tail: &LongTail,
    window: Range<u64>,
    p_v6: impl FnOnce(f64) -> Option<f64>,
    sport: impl FnOnce(&mut SmallRng, u64, u64) -> u16,
    src: impl FnOnce(bool) -> IpAddr,
    median_bytes: f64,
    spread: f64,
) -> FlowRecord {
    let asx = &tail.ases[tail.sample_index(rng)];
    let v6 = !asx.v6.is_empty() && p_v6(asx.v6_share).is_some_and(|p| rng.gen::<f64>() < p);
    // Tail v6 prefixes dwarf the host range and every tail v4 prefix is a
    // /24, so both host lookups are total.
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
    let start = window.start + rng.gen_range(0..window.end - window.start);
    let end = start + rng.gen_range(1..600) as u64 * 1_000_000;
    let sport = sport(rng, start, end);
    // A Box–Muller normal in the exponent gives real mass on both sides of
    // the median with a heavy upper tail, clamped to a sane record range.
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    let bytes = (median_bytes * (spread * z).exp2()).clamp(200.0, 4e8) as u64;
    let src = src(v6);
    let key = if rng.gen::<f64>() < 0.1 {
        FlowKey::udp(src, sport, dst, 443)
    } else {
        FlowKey::tcp(src, sport, dst, 443)
    };
    FlowRecord {
        key,
        start,
        end,
        bytes_orig: bytes / 20,
        bytes_reply: bytes,
        packets_orig: 1 + bytes / 30_000,
        packets_reply: 1 + bytes / 1_400,
        scope: Scope::External,
    }
}

/// Synthesize one day of long-tail traffic and hand it to `emit` in
/// chunks of at most [`LONG_TAIL_CHUNK`]. Pure function of
/// `(config.seed, day)` plus the tail.
fn synthesize_day(
    tail: &LongTail,
    config: &LongTailTrafficConfig,
    day: u32,
    emit: &mut dyn FnMut(Vec<FlowRecord>),
) {
    let mut rng = SmallRng::seed_from_u64(
        config
            .seed
            .wrapping_add((day as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f)),
    );
    let day_base = day as u64 * DAY_US;
    let mut sports = SportAlloc::new(10_000, day_base);
    // Aggregation-point source addresses (the monitor sits upstream of the
    // access network, so source identity is collapsed — the analyses only
    // read destination attribution and family).
    let src4: IpAddr = "100.64.255.1".parse().expect("static");
    let src6: IpAddr = "2a00:ffff::1".parse().expect("static");
    // Per-day IPv6 mood: a mild global multiplier so daily per-AS
    // fractions vary day to day without drifting the long-run mean.
    let day_jitter = 0.85 + 0.3 * rng.gen::<f64>();
    // Hour-by-hour emission (like residence synthesis): flow starts are
    // then near-monotone, which keeps the port allocator's skip-scan O(1)
    // — uniform starts across the whole day would make every early-morning
    // allocation scan past the previous lap's still-busy horizons.
    let per_hour = config.flows_per_day / 24;
    let remainder = config.flows_per_day % 24;
    // Records are handed over in chunks that each reach the sink as one
    // `accept_batch` run: attribution sinks resolve the whole run through
    // the batched LPM path. No sink's output or counter depends on where a
    // batch ends, so chunks need not follow hours.
    let mut chunk: Vec<FlowRecord> = Vec::with_capacity(LONG_TAIL_CHUNK);
    for hour in 0..24u64 {
        let n = per_hour + usize::from((hour as usize) < remainder);
        let hour_base = day_base + hour * HOUR_US;
        for _ in 0..n {
            // Lognormal size, median 100 kB.
            chunk.push(tail_flow(
                &mut rng,
                tail,
                hour_base..hour_base + HOUR_US,
                |share| Some((share * day_jitter).clamp(0.0, 1.0)),
                |_, start, end| sports.alloc(start, end),
                |v6| if v6 { src6 } else { src4 },
                100_000.0,
                1.3,
            ));
            if chunk.len() == LONG_TAIL_CHUNK {
                emit(std::mem::replace(
                    &mut chunk,
                    Vec::with_capacity(LONG_TAIL_CHUNK),
                ));
            }
        }
    }
    if !chunk.is_empty() {
        emit(chunk);
    }
}

/// Synthesize the whole run into `sink`: days ascending, records within a
/// day in generation order, byte-identical at any `config.threads` — the
/// same producer contract as residence synthesis, so every [`FlowSink`]
/// composes unchanged. Each chunk of a day reaches the sink as one
/// [`FlowSink::accept_batch`] of at most [`LONG_TAIL_CHUNK`] records.
pub fn synthesize_long_tail_into<S: FlowSink>(
    world: &World,
    config: &LongTailTrafficConfig,
    sink: &mut S,
) {
    let tail = &world.long_tail;
    assert!(!tail.is_empty(), "long-tail synthesis needs a tailed world");
    obs::par::stream(
        (0..config.num_days).collect(),
        config.threads,
        |_, day, emit| synthesize_day(tail, config, day, emit),
        |_, chunk: Vec<FlowRecord>| sink.accept_batch(&chunk),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmon::sink::{CollectSink, NullSink};
    use flowmon::Proto;
    use worldgen::WorldConfig;

    fn tailed_world() -> World {
        World::generate(
            &WorldConfig {
                num_sites: 200,
                ..WorldConfig::small()
            }
            .with_long_tail(1_000),
        )
    }

    #[test]
    fn deterministic_and_thread_invariant() {
        let world = tailed_world();
        let cfg = LongTailTrafficConfig {
            num_days: 4,
            flows_per_day: 3_000,
            threads: 1,
            ..LongTailTrafficConfig::default()
        };
        let mut seq = CollectSink::new();
        synthesize_long_tail_into(&world, &cfg, &mut seq);
        assert_eq!(seq.records.len(), 4 * 3_000);
        let mut par = CollectSink::new();
        synthesize_long_tail_into(
            &world,
            &LongTailTrafficConfig {
                threads: 3,
                ..cfg.clone()
            },
            &mut par,
        );
        assert_eq!(seq.records, par.records, "day fan-out changed the stream");
        // Days ascend (the producer contract aggregators rely on).
        let mut last_day = 0;
        for r in &seq.records {
            let day = r.start / DAY_US;
            assert!(day >= last_day);
            last_day = day;
        }
    }

    /// Records each batch's length; no record arrives outside a batch.
    #[derive(Default)]
    struct BatchSizes(Vec<usize>);

    impl FlowSink for BatchSizes {
        fn accept(&mut self, _: &FlowRecord) {
            panic!("long-tail synthesis delivers batches only");
        }

        fn accept_batch(&mut self, records: &[FlowRecord]) {
            self.0.push(records.len());
        }
    }

    #[test]
    fn batches_never_exceed_a_chunk() {
        let world = tailed_world();
        for threads in [1, 3] {
            let cfg = LongTailTrafficConfig {
                num_days: 2,
                flows_per_day: 2 * LONG_TAIL_CHUNK + 100,
                threads,
                ..LongTailTrafficConfig::default()
            };
            let mut sizes = BatchSizes::default();
            synthesize_long_tail_into(&world, &cfg, &mut sizes);
            let chunk = LONG_TAIL_CHUNK;
            assert_eq!(
                sizes.0,
                [chunk, chunk, 100, chunk, chunk, 100],
                "threads={threads}"
            );
        }
    }

    /// FNV-1a over the fields the tail analyses read, per record; `src`
    /// also folds the source address, the identity subscriber aggregates
    /// key by.
    fn stream_digest(records: &[FlowRecord], src: bool) -> u64 {
        let words = |a: IpAddr| {
            let v = match a {
                IpAddr::V4(a) => u128::from(u32::from(a)),
                IpAddr::V6(a) => u128::from(a),
            };
            [v as u64, (v >> 64) as u64]
        };
        records.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, r| {
            let [dst_lo, dst_hi] = words(r.key.dst);
            let [src_lo, src_hi] = words(r.key.src);
            let fields = [
                dst_lo,
                dst_hi,
                u64::from(r.key.sport),
                u64::from(r.key.proto == Proto::Udp),
                r.start,
                r.end,
                r.bytes_reply,
                src_lo,
                src_hi,
            ];
            fields[..if src { 9 } else { 7 }]
                .iter()
                .fold(h, |h, &x| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3))
        })
    }

    /// Every as-fractions dataset is a function of this stream: pin a
    /// digest of a small run, so a producer change that moves one draw
    /// fails here and not only in the end-to-end pins.
    #[test]
    fn stream_digest_is_pinned() {
        let cfg = LongTailTrafficConfig {
            num_days: 2,
            flows_per_day: 5_000,
            ..LongTailTrafficConfig::default()
        };
        let mut sink = CollectSink::new();
        synthesize_long_tail_into(&tailed_world(), &cfg, &mut sink);
        let digest = stream_digest(&sink.records, false);
        assert_eq!(sink.records.len(), 10_000);
        assert_eq!(digest, 0xe819_5115_02d9_bb78, "digest {digest:#018x}");
    }

    /// The same pin for the other tail producer, the stream behind every
    /// million-subs dataset, over a small population.
    #[test]
    fn subscriber_stream_digest_is_pinned() {
        let world = World::generate(
            &WorldConfig {
                num_sites: 200,
                ..WorldConfig::small()
            }
            .with_long_tail(1_000)
            .with_subscribers(6_000),
        );
        let cfg = crate::SubscriberTrafficConfig {
            num_days: 2,
            ..crate::SubscriberTrafficConfig::default()
        };
        let mut sink = CollectSink::new();
        crate::synthesize_subscribers_into(&world, &cfg, &mut sink);
        let digest = stream_digest(&sink.records, true);
        assert_eq!(sink.records.len(), 21_162);
        assert_eq!(digest, 0xf260_cef9_602f_586b, "digest {digest:#018x}");
    }

    #[test]
    fn covers_the_tail_with_both_families() {
        let world = tailed_world();
        let cfg = LongTailTrafficConfig {
            num_days: 2,
            flows_per_day: 20_000,
            ..LongTailTrafficConfig::default()
        };
        let mut sink = (CollectSink::new(), NullSink::default());
        synthesize_long_tail_into(&world, &cfg, &mut sink);
        let records = sink.0.records;
        let v6 = records
            .iter()
            .filter(|r| matches!(r.key.dst, IpAddr::V6(_)))
            .count();
        assert!(v6 > 1_000, "v6 records {v6}");
        assert!(
            records.len() - v6 > 1_000,
            "v4 records {}",
            records.len() - v6
        );
        // Every destination attributes to a long-tail AS.
        let mut distinct = std::collections::BTreeSet::new();
        for r in &records {
            let asn = world.rib.origin_of(r.key.dst).expect("attributable");
            assert!(asn.0 >= worldgen::longtail::LONG_TAIL_ASN_BASE);
            distinct.insert(asn.0);
        }
        // Zipf sampling still reaches deep into the tail.
        assert!(distinct.len() > 400, "distinct ASes {}", distinct.len());
    }
}
