//! Calibration targets pinned from the paper's published numbers.
//!
//! Every constant here cites the table/figure it reproduces. Values are
//! *fractions of the modelled population*, so the world scales from a quick
//! 2k-site test world to the paper's full 100k without re-tuning.

/// Calibration profile for world generation.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Fig 5: fraction of listed sites that fail with NXDOMAIN
    /// (13,376 / 100,000 in Jul 2025; grows from 12,355 in Oct 2024).
    pub nxdomain_rate: f64,
    /// Fig 5: fraction failing with other loading errors (4,802 / 100,000).
    pub other_failure_rate: f64,
    /// Fig 5 epoch deltas: extra NXDOMAIN per epoch transition
    /// (≈ 500/100k per step).
    pub nxdomain_growth_per_epoch: f64,
    /// Fraction of v4-only sites gaining an apex AAAA per epoch transition
    /// (drives the −0.6% IPv4-only drift Oct→Jul).
    pub apex_aaaa_gain_per_epoch: f64,
    /// Fraction of IPv4-only third-party domains gaining AAAA per epoch.
    pub third_party_gain_per_epoch: f64,

    /// Fig 6 cumulative targets: (rank bound, v4-only share, full share)
    /// among *connected* sites. Partial = 1 − v4only − full.
    pub rank_targets: Vec<(usize, f64, f64)>,

    /// §4.3: fraction of partial sites that are partial *only because of a
    /// first-party IPv4-only subdomain* (565 / 24,384 ≈ 2.3%).
    pub first_party_partial_rate: f64,

    /// Fraction of resource fetches landing on the main page (the rest are
    /// only discovered by link clicks). Drives the main-page-only ablation
    /// (12.5% → 14.1% IPv6-full).
    pub main_page_fetch_share: f64,

    /// Third-party pool size as a fraction of site count (Fig 8 x-axis:
    /// ~37.5k IPv4-only domains at 100k sites; total pool larger).
    pub third_party_pool_factor: f64,
    /// Fraction of the third-party pool that is IPv6-ready at epoch 0.
    /// (Most *fetches* hit ready domains — the blue curve of Fig 7 — but
    /// most *domains* in the tail are v4-only, per Fig 8.)
    pub third_party_ready_rate: f64,
    /// Number of heavy-hitter domains (span ≥ 100 at 100k scale: 396).
    pub heavy_hitter_count_factor: f64,

    /// Cloud: fraction of all FQDNs hosted by the top-15 Table 3 orgs (76%).
    pub top_cloud_share: f64,
    /// Cloud: fraction of cloud-hosted FQDNs that CNAME to an identifiable
    /// Table 2 service endpoint.
    pub service_cname_rate: f64,

    /// Mean number of first-party subdomains per site (www + static + ...).
    pub first_party_subdomains: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            nxdomain_rate: 0.12355,
            other_failure_rate: 0.04457,
            nxdomain_growth_per_epoch: 0.005,
            apex_aaaa_gain_per_epoch: 0.018,
            third_party_gain_per_epoch: 0.015,
            // (rank bound, cumulative v4-only, cumulative full) — Fig 6.
            rank_targets: vec![
                (100, 0.40, 0.301),
                (1_000, 0.50, 0.19),
                (10_000, 0.54, 0.15),
                (usize::MAX, 0.576, 0.126),
            ],
            first_party_partial_rate: 0.023,
            main_page_fetch_share: 0.45,
            third_party_pool_factor: 0.55,
            third_party_ready_rate: 0.35,
            heavy_hitter_count_factor: 0.004,
            top_cloud_share: 0.76,
            service_cname_rate: 0.14,
            first_party_subdomains: 2.4,
        }
    }
}

impl Calibration {
    /// Point (per-site) class probabilities at a given 1-based rank:
    /// `(p_v4_only, p_full)`, among connected sites. Derived from the
    /// cumulative Fig 6 targets so that bucket averages land on the paper's
    /// values.
    pub fn class_point_probs(&self, rank: usize) -> (f64, f64) {
        // Convert cumulative targets to per-bucket point probabilities.
        let mut prev_bound = 0usize;
        let mut prev_v4 = 0.0f64;
        let mut prev_full = 0.0f64;
        for &(bound, cum_v4, cum_full) in &self.rank_targets {
            if rank <= bound {
                let bucket = (bound.min(1_000_000) - prev_bound) as f64;
                let prev_n = prev_bound as f64;
                let bound_n = bound.min(1_000_000) as f64;
                let p_v4 = (cum_v4 * bound_n - prev_v4 * prev_n) / bucket;
                let p_full = (cum_full * bound_n - prev_full * prev_n) / bucket;
                return (p_v4.clamp(0.0, 1.0), p_full.clamp(0.0, 1.0));
            }
            prev_bound = bound;
            prev_v4 = cum_v4;
            prev_full = cum_full;
        }
        let &(_, v4, full) = self.rank_targets.last().expect("non-empty targets");
        (v4, full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_probs_reproduce_cumulative_targets() {
        let c = Calibration::default();
        // Integrate point probabilities over the top 100k and compare with
        // the cumulative targets.
        let mut cum_v4 = 0.0;
        let mut cum_full = 0.0;
        let mut checked = 0;
        for rank in 1..=100_000usize {
            let (v4, full) = c.class_point_probs(rank);
            cum_v4 += v4;
            cum_full += full;
            for &(bound, t_v4, t_full) in &c.rank_targets {
                let b = if bound == usize::MAX { 100_000 } else { bound };
                if rank == b {
                    let n = rank as f64;
                    assert!(
                        (cum_v4 / n - t_v4).abs() < 0.005,
                        "v4 cumulative at {rank}: {} vs {t_v4}",
                        cum_v4 / n
                    );
                    assert!(
                        (cum_full / n - t_full).abs() < 0.005,
                        "full cumulative at {rank}: {} vs {t_full}",
                        cum_full / n
                    );
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 4);
    }

    #[test]
    fn probabilities_are_valid_everywhere() {
        let c = Calibration::default();
        for rank in [1, 50, 100, 101, 999, 1000, 5000, 10001, 99999] {
            let (v4, full) = c.class_point_probs(rank);
            assert!(v4 >= 0.0 && full >= 0.0 && v4 + full <= 1.0, "rank {rank}");
        }
    }

    #[test]
    fn failure_rates_match_paper_magnitudes() {
        let c = Calibration::default();
        assert!((c.nxdomain_rate - 0.124).abs() < 0.01);
        assert!((c.other_failure_rate - 0.045).abs() < 0.01);
    }
}
