//! Translated-adoption tiers: the client-side analogue of the graded
//! website classification.
//!
//! The paper replaces "does this site support IPv6?" with a graded scheme;
//! this module does the same for access lines. Between "no IPv6" and
//! "native dual-stack" sit the transition technologies: DS-Lite lines are
//! *more* IPv6-adopted than dual-stack ones (IPv4 survives only as a
//! tunneled service), and IPv6-only lines with NAT64/464XLAT are the far
//! end of the spectrum — even traffic to IPv4-only services crosses the
//! access wire as IPv6, visible only by its RFC 6052 destination prefix.
//!
//! Classification is measurement-only: it reads the flow stream, through a
//! [`TranslationAgg`] sink, plus the two facts a router operator genuinely
//! has — the (well-known) NAT64 translation prefix, and whether the CPE
//! itself is provisioned as a DS-Lite B4. No generation ground truth is
//! consulted.

use flowmon::sink::TranslationAgg;
use serde::Serialize;
use transition::{AccessTech, GatewayStats};

/// Graded adoption of one access line, ordered from no IPv6 to IPv6-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum AdoptionTier {
    /// No IPv6 traffic at all (the binary view's "non-adopter").
    V4Only,
    /// Native IPv4 and IPv6 side by side; the split per service is the
    /// spectrum §3 measures.
    DualStackNative,
    /// Native IPv6 with IPv4 surviving only as a tunneled service
    /// (DS-Lite): every external v4 byte crosses the wire inside IPv6.
    V4AsAService,
    /// IPv6-only on the wire; legacy destinations reachable only through
    /// translation (NAT64/DNS64, 464XLAT).
    V6OnlyTranslated,
}

impl AdoptionTier {
    /// Label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            AdoptionTier::V4Only => "tier 0: no IPv6",
            AdoptionTier::DualStackNative => "tier 1: native dual-stack",
            AdoptionTier::V4AsAService => "tier 2: v6 + tunneled v4",
            AdoptionTier::V6OnlyTranslated => "tier 3: v6-only (translated)",
        }
    }
}

/// Measured byte/flow composition of one residence's external traffic,
/// graded by translation provenance.
#[derive(Debug, Clone, Serialize)]
pub struct TransitionAnalysis {
    /// Residence key.
    pub key: char,
    /// Access-technology label (router provisioning, e.g. "ds-lite").
    pub tech: String,
    /// Total external volume in GB, rescaled to pre-sampling magnitude.
    pub total_gb: f64,
    /// Share of external bytes on native IPv6 paths.
    pub native_v6_bytes: f64,
    /// Share of external bytes translated through NAT64 (incl. CLAT→PLAT).
    pub translated_bytes: f64,
    /// Share of external bytes tunneled to a DS-Lite AFTR.
    pub tunneled_v4_bytes: f64,
    /// Share of external bytes on native IPv4 paths.
    pub native_v4_bytes: f64,
    /// Share of external flows that are translated (flow-count analogue).
    pub translated_flows: f64,
    /// The graded tier this composition implies.
    pub tier: AdoptionTier,
    /// Gateway binding counters when the line uses one.
    pub gateway: Option<GatewayStats>,
}

/// Grade residence `key` from the [`TranslationAgg`] its stream filled:
/// tallies were accumulated while synthesis ran, no record was ever held.
/// `scale` is the stream's sampling factor and `gateway` the line's
/// binding counters, passed through to the report.
pub fn analyze_transition_agg(
    key: char,
    tech: AccessTech,
    scale: f64,
    agg: &TranslationAgg,
    gateway: Option<GatewayStats>,
) -> TransitionAnalysis {
    // Class indices per `TranslationAgg`: [native v6, nat64, ds-lite,
    // native v4].
    let native_v6_bytes = agg.byte_share(0);
    let translated_bytes = agg.byte_share(1);
    let tunneled_v4_bytes = agg.byte_share(2);
    let native_v4_bytes = agg.byte_share(3);
    let total_flows = agg.total_flows();

    // Grade from the measured composition (1% noise floor so a stray
    // misclassified flow cannot promote a tier).
    let v6_present = native_v6_bytes + translated_bytes > 0.01;
    let tier = if !v6_present {
        AdoptionTier::V4Only
    } else if translated_bytes > 0.01 {
        AdoptionTier::V6OnlyTranslated
    } else if tunneled_v4_bytes > 0.01 {
        AdoptionTier::V4AsAService
    } else {
        AdoptionTier::DualStackNative
    };

    TransitionAnalysis {
        key,
        tech: tech.label().to_string(),
        total_gb: agg.total_bytes() as f64 / scale / 1e9,
        native_v6_bytes,
        translated_bytes,
        tunneled_v4_bytes,
        native_v4_bytes,
        translated_flows: if total_flows == 0 {
            0.0
        } else {
            agg.flows[1] as f64 / total_flows as f64
        },
        tier,
        gateway,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmon::{CollectSink, TranslationMap};
    use trafficgen::{synthesize_profiles_with, transition_residences, TrafficConfig};
    use worldgen::{World, WorldConfig};

    #[test]
    fn cohort_lands_in_the_expected_tiers() {
        let world = World::generate(&WorldConfig::small());
        let cfg = TrafficConfig {
            num_days: 30,
            ..TrafficConfig::fast()
        };
        let nat64 = world.transition.nat64_prefix.prefix();
        let runs = synthesize_profiles_with(&world, transition_residences(), &cfg, |_, p| {
            let map = TranslationMap::new(nat64, p.access_tech == AccessTech::DsLite);
            (TranslationAgg::new(map), CollectSink::new())
        });
        let analyses: Vec<TransitionAnalysis> = runs
            .iter()
            .map(|(summary, (agg, _))| {
                let p = &summary.profile;
                analyze_transition_agg(p.key, p.access_tech, summary.scale, agg, summary.gateway)
            })
            .collect();
        let by_key = |k: char| analyses.iter().find(|a| a.key == k).unwrap();

        let native = by_key('N');
        assert_eq!(native.tier, AdoptionTier::DualStackNative);
        assert!(native.translated_bytes < 0.01);
        assert!(native.native_v6_bytes > 0.3 && native.native_v4_bytes > 0.1);

        let v4 = by_key('4');
        assert_eq!(v4.tier, AdoptionTier::V4Only);
        assert!(v4.native_v4_bytes > 0.99);

        for k in ['6', 'X'] {
            let a = by_key(k);
            assert_eq!(a.tier, AdoptionTier::V6OnlyTranslated, "residence {k}");
            assert!(
                a.native_v4_bytes < 1e-9 && a.tunneled_v4_bytes < 1e-9,
                "nothing leaves a v6-only line as IPv4"
            );
            assert!(a.translated_bytes > 0.02, "legacy services ride the NAT64");
            assert!(a.native_v6_bytes > 0.5, "dual-stack services stay native");
            assert!(a.gateway.is_some());
        }
        // The structural CLAT difference: on plain NAT64/DNS64 only
        // services *without* native AAAA are translated, while 464XLAT's
        // CLAT also carries v4-literal application traffic towards
        // dual-stack services. (Comparing aggregate shares between the two
        // residences would race their independent day-mix jitter.)
        let translated_to_dual_stack = |key: char| {
            let (_, (_, records)) = runs.iter().find(|(s, _)| s.profile.key == key).unwrap();
            let prefix = world.transition.nat64_prefix;
            records
                .records
                .iter()
                .filter(|f| f.scope == flowmon::Scope::External)
                .filter_map(|f| match f.key.dst {
                    std::net::IpAddr::V6(d) => prefix.extract(d),
                    _ => None,
                })
                .filter(|v4| {
                    world
                        .client_services
                        .iter()
                        .any(|s| s.v4.contains(&std::net::IpAddr::V4(*v4)) && !s.v6.is_empty())
                })
                .count()
        };
        assert_eq!(
            translated_to_dual_stack('6'),
            0,
            "plain NAT64 never translates towards services with native AAAA"
        );
        assert!(
            translated_to_dual_stack('X') > 0,
            "the CLAT literal share reaches dual-stack services through the PLAT"
        );

        let dslite = by_key('L');
        assert_eq!(dslite.tier, AdoptionTier::V4AsAService);
        assert!(dslite.tunneled_v4_bytes > 0.05);
        assert!(dslite.native_v4_bytes < 1e-9, "all external v4 is tunneled");
        assert!(dslite.gateway.is_some());
    }

    #[test]
    fn tiers_are_ordered() {
        assert!(AdoptionTier::V4Only < AdoptionTier::DualStackNative);
        assert!(AdoptionTier::DualStackNative < AdoptionTier::V4AsAService);
        assert!(AdoptionTier::V4AsAService < AdoptionTier::V6OnlyTranslated);
        assert_eq!(AdoptionTier::V4Only.label(), "tier 0: no IPv6");
    }
}
