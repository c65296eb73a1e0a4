//! Property tests of the streaming flow pipeline: a [`CollectSink`] sees
//! the same record sequence at every `threads` count, and streamed
//! aggregates equal aggregates recomputed from the collected records — the
//! two guarantees every sink-based analysis rests on.
//! The single-residence cases keep day-level parallelism exercised: one
//! residence's days are the whole task list there.

use flowmon::sink::{CollectSink, FlowStatsAgg, TranslationAgg};
use flowmon::{FlowSink, ScopeFamilyAgg, TranslationMap};
use ipv6view_core::client::AsAgg;
use proptest::prelude::*;
use std::sync::OnceLock;
use trafficgen::{
    paper_residences, synthesize_long_tail_into, synthesize_profiles_with,
    synthesize_residence_into, transition_residences, LongTailTrafficConfig, TrafficConfig,
};
use worldgen::{World, WorldConfig};

/// One shared world: generation is the expensive part and the properties
/// vary seeds/threads, not the world.
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::generate(&WorldConfig::small()))
}

/// A shared long-tail world for the routing-table-scale properties
/// (shrunk from the experiment's ~100k ASes to keep proptest cases fast —
/// the mechanism under test, the `long_tail_ases` knob + dense AS
/// symbols, is identical at every size).
fn tailed_world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        World::generate(
            &WorldConfig {
                num_sites: 200,
                ..WorldConfig::small()
            }
            .with_long_tail(3_000),
        )
    })
}

fn cfg(seed: u64, threads: usize) -> TrafficConfig {
    TrafficConfig {
        seed,
        num_days: 10,
        threads,
        ..TrafficConfig::fast()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Streaming into a `CollectSink` collects the sequential record
    /// sequence and summary whatever the worker layout, for both an
    /// untranslated and a gateway-using residence.
    #[test]
    fn collect_sink_is_byte_identical(
        seed in 0u64..1_000_000,
        threads in 1usize..5,
    ) {
        let world = world();
        let baseline_cfg = cfg(seed, 1);
        let par_cfg = cfg(seed, threads);
        // Residence A (dual-stack) and the cohort's NAT64 line.
        for (profile, idx) in [
            (paper_residences()[0].clone(), 0u64),
            (transition_residences()[2].clone(), 2u64),
        ] {
            let mut baseline = CollectSink::new();
            let base =
                synthesize_residence_into(world, profile.clone(), &baseline_cfg, idx, &mut baseline);
            let mut sink = CollectSink::new();
            let summary =
                synthesize_residence_into(world, profile, &par_cfg, idx, &mut sink);
            prop_assert_eq!(&sink.records, &baseline.records);
            prop_assert_eq!(summary.num_days, base.num_days);
            match (summary.gateway, base.gateway) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.granted, b.granted);
                    prop_assert_eq!(a.rejected, b.rejected);
                    prop_assert_eq!(a.peak_active, b.peak_active);
                }
                other => prop_assert!(false, "gateway mismatch: {:?}", other),
            }
        }
    }

    /// At long-tail scale: the per-AS aggregates streamed through a dense
    /// [`AsAgg`] are identical at every day-thread count, and identical to
    /// aggregates recomputed from the collected record stream — the
    /// `as-fractions` experiment's byte-identical-JSON guarantee.
    #[test]
    fn longtail_per_as_aggregates_identical_across_threads(
        seed in 0u64..1_000_000,
        threads in 2usize..5,
    ) {
        let world = tailed_world();
        let cfg = |threads| LongTailTrafficConfig {
            seed,
            num_days: 4,
            flows_per_day: 2_500,
            threads,
        };
        let mut seq = (CollectSink::new(), AsAgg::new(&world.rib, &world.registry));
        synthesize_long_tail_into(world, &cfg(1), &mut seq);
        let mut par = AsAgg::new(&world.rib, &world.registry);
        synthesize_long_tail_into(world, &cfg(threads), &mut par);
        let (records, seq_agg) = (seq.0.records, seq.1);
        // Thread-invariant...
        prop_assert_eq!(seq_agg.total_bytes(), par.total_bytes());
        let (a, b) = (seq_agg.fractions('T', 0.0001), par.fractions('T', 0.0001));
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.asn, y.asn);
            prop_assert_eq!(x.bytes, y.bytes);
            prop_assert_eq!(x.flows, y.flows);
            prop_assert_eq!(x.fraction, y.fraction);
        }
        // ...and equal to a recomputation from the collected stream.
        let mut recomputed = AsAgg::new(&world.rib, &world.registry);
        recomputed.accept_batch(&records);
        prop_assert_eq!(recomputed.total_bytes(), seq_agg.total_bytes());
        prop_assert_eq!(
            recomputed.fractions('T', 0.0).len(),
            seq_agg.fractions('T', 0.0).len()
        );
    }

    /// Streamed aggregates equal aggregates recomputed from the collected
    /// records — counters, distribution sketches and translation tallies
    /// alike — at any worker layout.
    #[test]
    fn streamed_aggregates_equal_recomputed(
        seed in 0u64..1_000_000,
        threads in 1usize..5,
    ) {
        let world = world();
        let par_cfg = cfg(seed, threads);
        let nat64 = world.transition.nat64_prefix.prefix();
        let map = TranslationMap::new(nat64, false);
        // Stream the transition cohort through composite aggregators...
        let streamed = synthesize_profiles_with(
            world,
            transition_residences(),
            &par_cfg,
            |_, _| (
                ScopeFamilyAgg::new(par_cfg.num_days),
                (FlowStatsAgg::new(), TranslationAgg::new(map)),
            ),
        );
        // ...and recompute the same aggregates from collected records.
        let collected = synthesize_profiles_with(
            world,
            transition_residences(),
            &cfg(seed, 1),
            |_, _| CollectSink::new(),
        );
        prop_assert_eq!(streamed.len(), collected.len());
        for ((summary, (scope, (stats, xlat))), (base, records)) in streamed.iter().zip(&collected) {
            prop_assert_eq!(summary.profile.key, base.profile.key);
            let mut scope2 = ScopeFamilyAgg::new(par_cfg.num_days);
            let mut stats2 = FlowStatsAgg::new();
            let mut xlat2 = TranslationAgg::new(map);
            (&mut scope2, &mut stats2, &mut xlat2).accept_batch(&records.records);
            prop_assert_eq!(scope, &scope2);
            prop_assert_eq!(stats, &stats2);
            prop_assert_eq!(&xlat.bytes, &xlat2.bytes);
            prop_assert_eq!(&xlat.flows, &xlat2.flows);
        }
    }
}
