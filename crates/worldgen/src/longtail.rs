//! The long-tail AS population: a ~100k-AS RIB for per-AS flow-fraction
//! analyses at routing-table scale.
//!
//! The client-service catalog covers the ~40 head ASes of the paper's Fig 4
//! — but real routing tables hold ~100k origin ASes, and the IXP and
//! deployment studies the roadmap cites show that it is exactly the long
//! tail where a fraction-of-traffic view diverges from binary adoption:
//! most tail ASes announce a couple of prefixes, many are IPv4-only, and
//! the dual-stacked ones carry wildly varying IPv6 shares.
//!
//! [`register_long_tail`] synthesizes that population deterministically:
//! each AS gets an org/registry entry (and thus a dense AS symbol), a
//! Zipf-ish traffic weight, a realistic prefix count (most ASes announce
//! one v4 prefix, a geometric tail announces up to [`MAX_PREFIXES_PER_AS`]),
//! and — for the adopting minority — v6 prefixes with a per-AS target IPv6
//! byte share. Address space comes from `128.0.0.0/2` and `3000::/4`,
//! disjoint from every block the head-world generator hands out.

use bgpsim::{AsCategory, AsId, OrgId, Registry, Rib};
use iputil::prefix::{Prefix4, Prefix6};
use iputil::{SubnetAllocator4, SubnetAllocator6};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// First ASN of the long-tail range — far above every catalog ASN
/// (≤ 396 986) and the transition plant (65 500), so a dense block of
/// `count` ASNs starting here can never collide.
pub const LONG_TAIL_ASN_BASE: u32 = 1_000_000;

/// Upper bound on prefixes one tail AS announces per family.
pub const MAX_PREFIXES_PER_AS: usize = 8;

/// Share of long-tail ASes announcing any IPv6 at all (the deployment
/// studies' long-tail picture: a clear majority is still IPv4-only).
const V6_ADOPTION_RATE: f64 = 0.38;

/// One synthesized long-tail AS: identity, announced space and traffic
/// behaviour (the generator's ground truth — analyses re-derive fractions
/// from flows without looking at this).
#[derive(Debug, Clone)]
pub struct LongTailAs {
    /// The AS number (dense in `LONG_TAIL_ASN_BASE..`).
    pub asn: AsId,
    /// Where its announced IPv4 prefixes sit in [`LongTail::v4`] (at least
    /// one).
    pub v4: Range<usize>,
    /// Where its announced IPv6 prefixes sit in [`LongTail::v6`] (empty for
    /// the v4-only majority).
    pub v6: Range<usize>,
    /// Target IPv6 byte share of traffic towards this AS (0 when v4-only).
    pub v6_share: f64,
}

/// The registered long-tail population, flat: every AS's prefixes in two
/// shared arrays, plus the table that samples ASes by traffic weight.
#[derive(Debug, Clone, Default)]
pub struct LongTail {
    /// Every tail AS, in ASN (= registration) order.
    pub ases: Vec<LongTailAs>,
    /// Every announced IPv4 prefix, AS by AS in ASN order.
    pub v4: Vec<Prefix4>,
    /// Every announced IPv6 prefix, AS by AS in ASN order.
    pub v6: Vec<Prefix6>,
    /// Cumulative Zipf traffic weights for weighted AS sampling
    /// (`cum_weights[i]` = the summed weights of ASes `0..=i`).
    cum_weights: Vec<f64>,
    /// Guide table over `cum_weights`: `guide[j]` counts the cumulative
    /// weights below `j × total / n`, for `j` in `0..n + 3`. A draw in
    /// bucket `j` is searched for only between `guide[j - 1]` and
    /// `guide[j + 2]`, a few entries in expectation.
    guide: Vec<u32>,
}

impl LongTail {
    /// Number of tail ASes.
    pub fn len(&self) -> usize {
        self.ases.len()
    }

    /// True when the world was generated without a long tail.
    pub fn is_empty(&self) -> bool {
        self.ases.is_empty()
    }

    /// Sample a tail AS index proportionally to traffic weight.
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cum_weights.last().expect("non-empty tail");
        self.index_at(rng.gen::<f64>() * total)
    }

    /// The first index whose cumulative weight reaches `x` (the last index
    /// past the total), found in O(1) expected time through the guide.
    fn index_at(&self, x: f64) -> usize {
        let n = self.cum_weights.len();
        let step = self.cum_weights[n - 1] / n as f64;
        // The bucket of `x`, widened by one on each side, so float rounding
        // in the bucket arithmetic can never put the answer outside it.
        let bucket = (x / step) as usize;
        let last = self.guide.len() - 1;
        let lo = self.guide[bucket.saturating_sub(1).min(last)] as usize;
        let hi = self.guide[(bucket + 2).min(last)] as usize;
        (lo + self.cum_weights[lo..hi].partition_point(|&c| c < x)).min(n - 1)
    }
}

/// The guide table of `cum_weights` (see [`LongTail`]'s `guide` field).
fn guide_table(cum_weights: &[f64]) -> Vec<u32> {
    let n = cum_weights.len();
    let step = cum_weights.last().map_or(0.0, |&total| total / n as f64);
    let mut below = 0;
    (0..n + 3)
        .map(|j| {
            let bound = j as f64 * step;
            while below < n && cum_weights[below] < bound {
                below += 1;
            }
            below as u32
        })
        .collect()
}

/// Register `count` long-tail ASes into the registry and RIB. Deterministic
/// in `seed` (and independent of every other world knob, so enabling the
/// tail never perturbs the head world).
pub fn register_long_tail(
    registry: &mut Registry,
    rib: &mut Rib,
    seed: u64,
    count: usize,
) -> LongTail {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6c74_6169_6c5f_6173); // "ltail_as"
                                                                         // /24s out of 128.0.0.0/2 (4M available) and /40s out of 3000::/4.
    let mut v4_alloc = SubnetAllocator4::new("128.0.0.0/2".parse().expect("static"), 24);
    let mut v6_alloc = SubnetAllocator6::new("3000::/4".parse().expect("static"), 40);

    let mut ases = Vec::with_capacity(count);
    let (mut v4, mut v6) = (Vec::with_capacity(count), Vec::new());
    let mut cum_weights = Vec::with_capacity(count);
    let mut cum = 0.0f64;
    for i in 0..count {
        let asn = AsId(LONG_TAIL_ASN_BASE + i as u32);
        let org = OrgId(format!("org-tail{}", asn.0));
        // The tail is ISP-heavy with an "other" remainder — hosting and the
        // big content categories live in the head catalog.
        let category = if rng.gen::<f64>() < 0.55 {
            AsCategory::Isp
        } else {
            AsCategory::Other
        };
        registry.add_org(org.clone(), &format!("Tail Network {}", i + 1));
        registry.add_as(asn, &format!("TAIL-AS{}", asn.0), org, category);

        // Prefix count: geometric — P(k prefixes) ∝ 2^-k, capped.
        let mut n_prefixes = 1usize;
        while n_prefixes < MAX_PREFIXES_PER_AS && rng.gen::<f64>() < 0.5 {
            n_prefixes += 1;
        }
        let adopted = rng.gen::<f64>() < V6_ADOPTION_RATE;
        let v6_share = if adopted {
            // Adopters spread over the whole (0, 1) range with mass at both
            // ends — the non-binary picture: u^0.5 pushes towards 1, a 25%
            // laggard slice stays below 0.2.
            if rng.gen::<f64>() < 0.25 {
                rng.gen::<f64>() * 0.2
            } else {
                rng.gen::<f64>().sqrt()
            }
        } else {
            0.0
        };
        let (v4_start, v6_start) = (v4.len(), v6.len());
        for _ in 0..n_prefixes {
            let p4 = v4_alloc.next_subnet().expect("v4 space for the tail");
            rib.announce4(p4, asn);
            v4.push(p4);
        }
        if adopted {
            // v6 tables are sparser than v4: one announcement per AS, plus
            // occasionally a second.
            let n6 = if rng.gen::<f64>() < 0.2 { 2 } else { 1 };
            for _ in 0..n6 {
                let p6 = v6_alloc.next_subnet().expect("v6 space for the tail");
                rib.announce6(p6, asn);
                v6.push(p6);
            }
        }
        // Zipf-ish traffic weight over tail rank (s ≈ 0.9), so a handful of
        // tail ASes still matter while most barely clear any volume floor.
        cum += 1.0 / ((i + 1) as f64).powf(0.9);
        cum_weights.push(cum);
        ases.push(LongTailAs {
            asn,
            v4: v4_start..v4.len(),
            v6: v6_start..v6.len(),
            v6_share,
        });
    }
    let guide = guide_table(&cum_weights);
    LongTail {
        ases,
        v4,
        v6,
        cum_weights,
        guide,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_routable_attributable_tail() {
        let mut registry = Registry::new();
        let mut rib = Rib::new();
        let tail = register_long_tail(&mut registry, &mut rib, 7, 500);
        assert_eq!(tail.len(), 500);
        assert_eq!(registry.as_count(), 500);
        for a in &tail.ases {
            assert!(!a.v4.is_empty());
            // Every announced prefix attributes back to its AS.
            let host = tail.v4[a.v4.start].host(1).expect("host");
            assert_eq!(rib.origin_of(std::net::IpAddr::V4(host)), Some(a.asn));
            if let Some(p6) = tail.v6[a.v6.clone()].first() {
                let host6 = p6.host(1).expect("host");
                assert_eq!(rib.origin_of(std::net::IpAddr::V6(host6)), Some(a.asn));
                assert!(a.v6_share > 0.0);
            } else {
                assert_eq!(a.v6_share, 0.0);
            }
            // Dense registry symbols exist for the whole tail.
            assert!(registry.as_sym(a.asn).is_some());
        }
        // A realistic adoption mix: a v4-only majority, a dual-stack tail.
        let adopted = tail.ases.iter().filter(|a| !a.v6.is_empty()).count();
        assert!((100..300).contains(&adopted), "adopted {adopted}");
        // Prefix counts are long-tailed but bounded.
        assert!(tail.ases.iter().any(|a| a.v4.len() > 2));
        assert!(tail.ases.iter().all(|a| a.v4.len() <= MAX_PREFIXES_PER_AS));
    }

    #[test]
    fn deterministic_in_seed() {
        let build = |seed| {
            let mut registry = Registry::new();
            let mut rib = Rib::new();
            register_long_tail(&mut registry, &mut rib, seed, 200)
        };
        let (a, b, c) = (build(1), build(1), build(2));
        assert_eq!(a.v4, b.v4);
        assert_eq!(a.v6, b.v6);
        for (x, y) in a.ases.iter().zip(&b.ases) {
            assert_eq!(x.asn, y.asn);
            assert_eq!(x.v4, y.v4);
            assert_eq!(x.v6, y.v6);
            assert_eq!(x.v6_share, y.v6_share);
        }
        assert!(a
            .ases
            .iter()
            .zip(&c.ases)
            .any(|(x, y)| x.v6_share != y.v6_share));
    }

    /// The guided search returns exactly what a binary search over the
    /// whole cumulative table returns, at every tail size: for random
    /// draws, at every cumulative weight and every bucket bound, and one
    /// ulp either side of each.
    #[test]
    fn guided_sampling_matches_a_full_binary_search() {
        for count in [1, 2, 3, 10, 1_000, 20_000] {
            let mut registry = Registry::new();
            let mut rib = Rib::new();
            let tail = register_long_tail(&mut registry, &mut rib, 11, count);
            let total = *tail.cum_weights.last().expect("non-empty");
            let step = total / count as f64;
            let mut rng = SmallRng::seed_from_u64(5);
            let xs = (0..100_000)
                .map(|_| rng.gen::<f64>() * total)
                .chain(tail.cum_weights.iter().copied())
                .chain((0..count + 3).map(|j| j as f64 * step));
            for x in xs {
                for x in [
                    f64::from_bits(x.to_bits().saturating_sub(1)),
                    x,
                    f64::from_bits(x.to_bits() + 1),
                ] {
                    let expect = tail.cum_weights.partition_point(|&c| c < x).min(count - 1);
                    assert_eq!(tail.index_at(x), expect, "count={count} x={x}");
                }
            }
        }
    }

    #[test]
    fn weighted_sampling_favors_the_head_of_the_tail() {
        let mut registry = Registry::new();
        let mut rib = Rib::new();
        let tail = register_long_tail(&mut registry, &mut rib, 7, 1_000);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut head = 0usize;
        for _ in 0..10_000 {
            let i = tail.sample_index(&mut rng);
            assert!(i < tail.len());
            if i < 100 {
                head += 1;
            }
        }
        // Zipf s=0.9 over 1000: the first 100 ranks carry roughly half the
        // mass.
        assert!((3_500..7_500).contains(&head), "head draws {head}");
    }
}
