//! Property-based tests for iputil: LPM-vs-linear-scan equivalence,
//! anonymizer prefix preservation, prefix algebra invariants.

use iputil::anon::{Anonymizer, AnonymizerConfig};
use iputil::prefix::{Prefix4, Prefix6};
use iputil::{Lpm4, Lpm6};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::{Ipv4Addr, Ipv6Addr};

fn arb_prefix4() -> impl Strategy<Value = Prefix4> {
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Prefix4::new(Ipv4Addr::from(bits), len))
}

fn arb_prefix6() -> impl Strategy<Value = Prefix6> {
    (any::<u128>(), 0u8..=128).prop_map(|(bits, len)| Prefix6::new(Ipv6Addr::from(bits), len))
}

/// The oracle: scan every stored prefix, keep the longest that contains
/// `addr`.
fn scan4(mirror: &BTreeMap<Prefix4, u32>, addr: Ipv4Addr) -> Option<(Prefix4, u32)> {
    mirror
        .iter()
        .filter(|(p, _)| p.contains(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|(p, v)| (*p, *v))
}

/// IPv6 twin of [`scan4`].
fn scan6(mirror: &BTreeMap<Prefix6, u32>, addr: Ipv6Addr) -> Option<(Prefix6, u32)> {
    mirror
        .iter()
        .filter(|(p, _)| p.contains(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|(p, v)| (*p, *v))
}

/// `table`'s scalar, batched and value-only answers for every address in
/// `addrs` equal a linear scan over `mirror`.
fn assert_agrees4(table: &Lpm4<u32>, mirror: &BTreeMap<Prefix4, u32>, addrs: &[Ipv4Addr]) {
    let batch = table.longest_match_many(addrs);
    let values = table.values_many(addrs);
    for (i, &a) in addrs.iter().enumerate() {
        let want = scan4(mirror, a);
        assert_eq!(
            table.longest_match(a).map(|(p, v)| (p, *v)),
            want,
            "scalar {a}"
        );
        assert_eq!(batch[i].map(|(p, v)| (p, *v)), want, "batched {a}");
        assert_eq!(values[i].copied(), want.map(|(_, v)| v), "values {a}");
    }
}

/// IPv6 twin of [`assert_agrees4`].
fn assert_agrees6(table: &Lpm6<u32>, mirror: &BTreeMap<Prefix6, u32>, addrs: &[Ipv6Addr]) {
    let batch = table.longest_match_many(addrs);
    let values = table.values_many(addrs);
    for (i, &a) in addrs.iter().enumerate() {
        let want = scan6(mirror, a);
        assert_eq!(
            table.longest_match(a).map(|(p, v)| (p, *v)),
            want,
            "scalar {a}"
        );
        assert_eq!(batch[i].map(|(p, v)| (p, *v)), want, "batched {a}");
        assert_eq!(values[i].copied(), want.map(|(_, v)| v), "values {a}");
    }
}

/// Apply one insert (`true`) or remove op to both the table and its mirror.
fn apply4(
    table: &mut Lpm4<u32>,
    mirror: &mut BTreeMap<Prefix4, u32>,
    p: Prefix4,
    insert: bool,
    val: u32,
) {
    if insert {
        assert_eq!(table.insert(p, val), mirror.insert(p, val), "insert {p}");
    } else {
        assert_eq!(table.remove(p), mirror.remove(&p), "remove {p}");
    }
}

/// IPv6 twin of [`apply4`].
fn apply6(
    table: &mut Lpm6<u32>,
    mirror: &mut BTreeMap<Prefix6, u32>,
    p: Prefix6,
    insert: bool,
    val: u32,
) {
    if insert {
        assert_eq!(table.insert(p, val), mirror.insert(p, val), "insert {p}");
    } else {
        assert_eq!(table.remove(p), mirror.remove(&p), "remove {p}");
    }
}

/// An address inside `p` whose host bits come from `bits`.
fn inside6(p: Prefix6, bits: u128) -> Ipv6Addr {
    let host = if p.len() == 128 {
        0
    } else {
        bits & !iputil::prefix::mask128(p.len())
    };
    Ipv6Addr::from(p.bits() | host)
}

proptest! {
    /// The table's longest match must agree with a brute-force linear scan.
    #[test]
    fn lpm_matches_linear_scan(
        prefixes in proptest::collection::vec(arb_prefix4(), 1..40),
        addrs in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        let mut table: Lpm4<usize> = Lpm4::new();
        for (i, p) in prefixes.iter().enumerate() {
            table.insert(*p, i);
        }
        for addr_bits in addrs {
            let addr = Ipv4Addr::from(addr_bits);
            let expect = prefixes
                .iter()
                .enumerate()
                .filter(|(_, p)| p.contains(addr))
                .max_by_key(|(i, p)| (p.len(), *i)); // later insert wins ties (same prefix replaced)
            let got = table.longest_match(addr);
            match (expect, got) {
                (None, None) => {}
                (Some((_, p)), Some((gp, _))) => {
                    prop_assert_eq!(p.len(), gp.len(), "match length differs for {}", addr);
                    // The matched prefix must actually contain the address.
                    prop_assert!(gp.contains(addr));
                }
                (e, g) => prop_assert!(false, "mismatch for {}: {:?} vs {:?}", addr, e, g),
            }
        }
    }

    /// Inserting then removing every prefix leaves the table empty for
    /// queries.
    #[test]
    fn lpm4_remove_all(prefixes in proptest::collection::vec(arb_prefix4(), 1..30)) {
        let mut table: Lpm4<u8> = Lpm4::new();
        for p in &prefixes {
            table.insert(*p, 0);
        }
        for p in &prefixes {
            table.remove(*p);
        }
        prop_assert_eq!(table.len(), 0);
        for p in &prefixes {
            prop_assert!(table.longest_match(p.network()).is_none());
        }
    }

    /// Anonymization preserves the length of the longest shared prefix of any
    /// two IPv4 addresses, bit for bit.
    #[test]
    fn anon_preserves_prefix_v4(a in any::<u32>(), b in any::<u32>(), key in any::<[u8; 16]>()) {
        let anon = Anonymizer::new(key, AnonymizerConfig::full());
        let (a, b) = (Ipv4Addr::from(a), Ipv4Addr::from(b));
        let (a2, b2) = (anon.anon_v4(a), anon.anon_v4(b));
        let before = (u32::from(a) ^ u32::from(b)).leading_zeros();
        let after = (u32::from(a2) ^ u32::from(b2)).leading_zeros();
        prop_assert_eq!(before, after);
    }

    /// Same property for IPv6 with the paper configuration: the kept /64 is
    /// identical and the scrambled half still preserves shared prefixes.
    #[test]
    fn anon_preserves_prefix_v6_paper(a in any::<u128>(), b in any::<u128>(), key in any::<[u8; 16]>()) {
        let anon = Anonymizer::new(key, AnonymizerConfig::paper());
        let (a, b) = (Ipv6Addr::from(a), Ipv6Addr::from(b));
        let (a2, b2) = (anon.anon_v6(a), anon.anon_v6(b));
        prop_assert_eq!(u128::from(a2) >> 64, u128::from(a) >> 64);
        prop_assert_eq!(u128::from(b2) >> 64, u128::from(b) >> 64);
        let before = (u128::from(a) ^ u128::from(b)).leading_zeros();
        let after = (u128::from(a2) ^ u128::from(b2)).leading_zeros();
        prop_assert_eq!(before, after);
    }

    /// Prefix textual round-trip.
    #[test]
    fn prefix4_display_parse_roundtrip(p in arb_prefix4()) {
        let s = p.to_string();
        let q: Prefix4 = s.parse().unwrap();
        prop_assert_eq!(p, q);
    }

    /// Prefix textual round-trip (IPv6).
    #[test]
    fn prefix6_display_parse_roundtrip(p in arb_prefix6()) {
        let s = p.to_string();
        let q: Prefix6 = s.parse().unwrap();
        prop_assert_eq!(p, q);
    }

    /// `covers` is consistent with `contains` on the subnet's network address
    /// and is a partial order (reflexive, antisymmetric on distinct lengths).
    #[test]
    fn covers_consistency(a in arb_prefix4(), b in arb_prefix4()) {
        prop_assert!(a.covers(a));
        if a.covers(b) {
            prop_assert!(a.contains(b.network()));
            prop_assert!(a.len() <= b.len());
        }
        if a.covers(b) && b.covers(a) {
            prop_assert_eq!(a, b);
        }
    }

    /// Subnetting then asking for the host keeps addresses inside the parent.
    #[test]
    fn subnets_stay_inside_parent(
        bits in any::<u32>(),
        plen in 0u8..=24,
        extra in 0u8..=8,
        idx in any::<u64>(),
        host in any::<u64>(),
    ) {
        let parent = Prefix4::new(Ipv4Addr::from(bits), plen);
        let sublen = plen + extra;
        let idx = idx % (1u64 << extra);
        let sub = parent.subnet(sublen, idx).unwrap();
        prop_assert!(parent.covers(sub));
        let host = host % sub.size();
        let h = sub.host(host).unwrap();
        prop_assert!(sub.contains(h));
        prop_assert!(parent.contains(h));
    }

    /// IPv6: the table's longest match must agree with a brute-force
    /// linear scan (observational equivalence against a naive reference).
    /// Addresses are biased toward stored prefixes so hits are exercised,
    /// not just misses.
    #[test]
    fn lpm6_matches_linear_scan(
        prefixes in proptest::collection::vec(arb_prefix6(), 1..40),
        addrs in proptest::collection::vec((any::<u128>(), 0usize..40, any::<bool>()), 1..40),
    ) {
        let mut table: Lpm6<usize> = Lpm6::new();
        for (i, p) in prefixes.iter().enumerate() {
            table.insert(*p, i);
        }
        for (bits, pick, inside) in addrs {
            // Half the probes land inside a stored prefix (low bits random).
            let addr = if inside {
                inside6(prefixes[pick % prefixes.len()], bits)
            } else {
                Ipv6Addr::from(bits)
            };
            let expect = prefixes
                .iter()
                .filter(|p| p.contains(addr))
                .map(|p| p.len())
                .max();
            let got = table.longest_match(addr);
            match (expect, got) {
                (None, None) => {}
                (Some(len), Some((gp, _))) => {
                    prop_assert_eq!(len, gp.len(), "match length differs for {}", addr);
                    prop_assert!(gp.contains(addr));
                }
                (e, g) => prop_assert!(false, "mismatch for {}: {:?} vs {:?}", addr, e, g),
            }
        }
    }

    /// Batched lookup must be observationally identical to one-at-a-time
    /// lookup, for both families, including duplicates and misses.
    #[test]
    fn batched_agrees_with_single(
        prefixes4 in proptest::collection::vec(arb_prefix4(), 1..30),
        prefixes6 in proptest::collection::vec(arb_prefix6(), 1..30),
        addrs in proptest::collection::vec((any::<u32>(), any::<u128>()), 1..50),
    ) {
        let mut t4: Lpm4<usize> = Lpm4::new();
        for (i, p) in prefixes4.iter().enumerate() {
            t4.insert(*p, i);
        }
        let mut t6: Lpm6<usize> = Lpm6::new();
        for (i, p) in prefixes6.iter().enumerate() {
            t6.insert(*p, i);
        }
        // Duplicate every address so the dedup path is exercised.
        let mut a4: Vec<Ipv4Addr> = addrs.iter().map(|&(b, _)| Ipv4Addr::from(b)).collect();
        a4.extend(addrs.iter().map(|&(b, _)| Ipv4Addr::from(b)));
        let mut a6: Vec<Ipv6Addr> = addrs.iter().map(|&(_, b)| Ipv6Addr::from(b)).collect();
        a6.extend(addrs.iter().map(|&(_, b)| Ipv6Addr::from(b)));

        let batch4 = t4.longest_match_many(&a4);
        for (i, &a) in a4.iter().enumerate() {
            prop_assert_eq!(
                batch4[i].map(|(p, v)| (p, *v)),
                t4.longest_match(a).map(|(p, v)| (p, *v))
            );
        }
        let batch6 = t6.longest_match_many(&a6);
        for (i, &a) in a6.iter().enumerate() {
            prop_assert_eq!(
                batch6[i].map(|(p, v)| (p, *v)),
                t6.longest_match(a).map(|(p, v)| (p, *v))
            );
        }
    }

    /// Inserting then removing every IPv6 prefix leaves the table empty for
    /// queries (the v6 twin of `lpm4_remove_all` above).
    #[test]
    fn lpm6_remove_all(prefixes in proptest::collection::vec(arb_prefix6(), 1..30)) {
        let mut table: Lpm6<u8> = Lpm6::new();
        for p in &prefixes {
            table.insert(*p, 0);
        }
        for p in &prefixes {
            table.remove(*p);
        }
        prop_assert_eq!(table.len(), 0);
        for p in &prefixes {
            prop_assert!(table.longest_match(p.network()).is_none());
        }
    }

    /// Interleaved inserts and removes against a `BTreeMap` mirror: after
    /// every op the table's return values, `len` and exact `get` match the
    /// mirror, and every probe's scalar, batched and value-only answers
    /// equal a linear scan over it — so a stale compiled table shows up at
    /// the first lookup after the op that outdated it. Short prefixes and
    /// the default route are force-included so the leaf-pushing and
    /// root-spanning paths are always exercised, and the 16 anchors (when
    /// on) keep the compiled table out of its linear-scan representation.
    #[test]
    fn lpm4_differential_vs_linear_scan(
        ops in proptest::collection::vec(
            ((any::<u32>(), 0u8..=32), any::<bool>(), any::<u32>()),
            1..60,
        ),
        default_route in any::<bool>(),
        anchored in any::<bool>(),
        short in (any::<u32>(), 1u8..=8),
        probes in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        let mut table: Lpm4<u32> = Lpm4::new();
        let mut mirror: BTreeMap<Prefix4, u32> = BTreeMap::new();
        let mut seed = vec![(Prefix4::new(Ipv4Addr::from(short.0), short.1), 434343)];
        if default_route {
            seed.push((Prefix4::new(Ipv4Addr::from(0), 0), 424242));
        }
        if anchored {
            seed.extend((0..16u32).map(|i| {
                (Prefix4::new(Ipv4Addr::from(0xb000_0000 + (i << 20)), 16), 900 + i)
            }));
        }
        for (p, v) in seed {
            table.insert(p, v);
            mirror.insert(p, v);
        }
        let addrs: Vec<Ipv4Addr> = probes.iter().map(|&b| Ipv4Addr::from(b)).collect();
        for ((bits, len), is_insert, val) in ops {
            let p = Prefix4::new(Ipv4Addr::from(bits), len);
            apply4(&mut table, &mut mirror, p, is_insert, val);
            prop_assert_eq!(table.len(), mirror.len());
            prop_assert_eq!(table.get(p), mirror.get(&p), "get {}", p);
            // Probe the op's own network too, so hits are exercised.
            let mut probe = addrs.clone();
            probe.push(p.network());
            assert_agrees4(&table, &mirror, &probe);
        }
    }

    /// IPv6 twin of the differential property — the 128-bit key exercises
    /// multi-level stride chains, path-compressed skips, and the
    /// uniform-node encoding far more deeply than v4. Probes are biased
    /// toward stored prefixes so deep hits are exercised, not just
    /// root-table misses.
    #[test]
    fn lpm6_differential_vs_linear_scan(
        ops in proptest::collection::vec(
            ((any::<u128>(), 0u8..=128), any::<bool>(), any::<u32>()),
            1..50,
        ),
        default_route in any::<bool>(),
        anchored in any::<bool>(),
        short in (any::<u128>(), 1u8..=12),
        probes in proptest::collection::vec((any::<u128>(), 0usize..50, any::<bool>()), 1..30),
    ) {
        let mut table: Lpm6<u32> = Lpm6::new();
        let mut mirror: BTreeMap<Prefix6, u32> = BTreeMap::new();
        let mut seed = vec![(Prefix6::new(Ipv6Addr::from(short.0), short.1), 434343)];
        if default_route {
            seed.push((Prefix6::new(Ipv6Addr::from(0), 0), 424242));
        }
        if anchored {
            seed.extend((0..16u128).map(|i| {
                (Prefix6::new(Ipv6Addr::from(0xfd00u128 << 112 | i << 96), 32), 900 + i as u32)
            }));
        }
        for (p, v) in seed {
            table.insert(p, v);
            mirror.insert(p, v);
        }
        let mut inserted: Vec<Prefix6> = Vec::new();
        for ((bits, len), is_insert, val) in ops {
            let p = Prefix6::new(Ipv6Addr::from(bits), len);
            apply6(&mut table, &mut mirror, p, is_insert, val);
            if is_insert {
                inserted.push(p);
            }
            prop_assert_eq!(table.len(), mirror.len());
            prop_assert_eq!(table.get(p), mirror.get(&p), "get {}", p);
            let addrs: Vec<Ipv6Addr> = probes
                .iter()
                .map(|&(bits, pick, inside)| {
                    if inside && !inserted.is_empty() {
                        inside6(inserted[pick % inserted.len()], bits)
                    } else {
                        Ipv6Addr::from(bits)
                    }
                })
                .collect();
            assert_agrees6(&table, &mirror, &addrs);
        }
    }

    /// Mid-churn snapshots: a clone taken once a lookup has compiled the
    /// table keeps answering for its own prefix set while the original
    /// churns on, and the original's next lookups see every later op — each
    /// checked against a linear scan over its own mirror. (Named for the
    /// radix-trie oracle these snapshots were first compared against.)
    #[test]
    fn frozen4_differential_vs_trie(
        ops in proptest::collection::vec(
            ((any::<u32>(), 0u8..=32), any::<bool>(), any::<u32>()),
            1..60,
        ),
        default_route in any::<bool>(),
        short in (any::<u32>(), 1u8..=8),
        probes in proptest::collection::vec(any::<u32>(), 1..40),
        freeze_at in 0usize..60,
    ) {
        let mut table: Lpm4<u32> = Lpm4::new();
        let mut mirror: BTreeMap<Prefix4, u32> = BTreeMap::new();
        if default_route {
            apply4(&mut table, &mut mirror, Prefix4::new(Ipv4Addr::from(0), 0), true, 424242);
        }
        apply4(&mut table, &mut mirror, Prefix4::new(Ipv4Addr::from(short.0), short.1), true, 434343);
        let addrs: Vec<Ipv4Addr> = probes.iter().map(|&b| Ipv4Addr::from(b)).collect();
        let split = freeze_at.min(ops.len());
        for &((bits, len), is_insert, val) in &ops[..split] {
            apply4(&mut table, &mut mirror, Prefix4::new(Ipv4Addr::from(bits), len), is_insert, val);
        }
        assert_agrees4(&table, &mirror, &addrs);
        let (mid, mid_mirror) = (table.clone(), mirror.clone());
        for &((bits, len), is_insert, val) in &ops[split..] {
            apply4(&mut table, &mut mirror, Prefix4::new(Ipv4Addr::from(bits), len), is_insert, val);
        }
        assert_agrees4(&table, &mirror, &addrs);
        assert_agrees4(&mid, &mid_mirror, &addrs);
    }

    /// IPv6 twin of the mid-churn snapshot property, with probes biased
    /// toward stored prefixes so deep hits are exercised.
    #[test]
    fn frozen6_differential_vs_trie(
        ops in proptest::collection::vec(
            ((any::<u128>(), 0u8..=128), any::<bool>(), any::<u32>()),
            1..50,
        ),
        default_route in any::<bool>(),
        short in (any::<u128>(), 1u8..=12),
        probes in proptest::collection::vec((any::<u128>(), 0usize..50, any::<bool>()), 1..30),
        freeze_at in 0usize..50,
    ) {
        let mut table: Lpm6<u32> = Lpm6::new();
        let mut mirror: BTreeMap<Prefix6, u32> = BTreeMap::new();
        if default_route {
            apply6(&mut table, &mut mirror, Prefix6::new(Ipv6Addr::from(0), 0), true, 424242);
        }
        apply6(&mut table, &mut mirror, Prefix6::new(Ipv6Addr::from(short.0), short.1), true, 434343);
        let ops: Vec<(Prefix6, bool, u32)> = ops
            .into_iter()
            .map(|((bits, len), is_insert, val)| (Prefix6::new(Ipv6Addr::from(bits), len), is_insert, val))
            .collect();
        let stored: Vec<Prefix6> = ops.iter().filter(|op| op.1).map(|op| op.0).collect();
        let addrs: Vec<Ipv6Addr> = probes
            .iter()
            .map(|&(bits, pick, inside)| {
                if inside && !stored.is_empty() {
                    inside6(stored[pick % stored.len()], bits)
                } else {
                    Ipv6Addr::from(bits)
                }
            })
            .collect();
        let split = freeze_at.min(ops.len());
        for &(p, is_insert, val) in &ops[..split] {
            apply6(&mut table, &mut mirror, p, is_insert, val);
        }
        assert_agrees6(&table, &mirror, &addrs);
        let (mid, mid_mirror) = (table.clone(), mirror.clone());
        for &(p, is_insert, val) in &ops[split..] {
            apply6(&mut table, &mut mirror, p, is_insert, val);
        }
        assert_agrees6(&table, &mirror, &addrs);
        assert_agrees6(&mid, &mid_mirror, &addrs);
    }

    /// Interleaved inserts and removes, with a lookup (and so a recompile)
    /// after every op, leave the table equal to a fresh build of the
    /// surviving prefix set: the same stored prefixes (`len`, and exact
    /// `get` on every prefix an op touched) and the same answers, scalar
    /// and batched. The table's structure is a function of its contents,
    /// not of its history.
    #[test]
    fn lpm4_interleaved_ops_structurally_equal_fresh_build(
        ops in proptest::collection::vec(
            ((any::<u32>(), 16u8..=32), any::<bool>(), any::<u32>()),
            1..80,
        ),
        probes in proptest::collection::vec(any::<u32>(), 1..30),
    ) {
        // 16 fixed anchors keep both tables out of the compile's
        // linear-scan representation.
        let mut churned: Lpm4<u32> = Lpm4::new();
        let mut mirror: BTreeMap<Prefix4, u32> = BTreeMap::new();
        for i in 0..16u32 {
            let anchor = Prefix4::new(Ipv4Addr::from(0xb000_0000 + (i << 20)), 16);
            apply4(&mut churned, &mut mirror, anchor, true, 0);
        }
        let mut touched = Vec::new();
        for ((bits, len), is_insert, val) in ops {
            let p = Prefix4::new(Ipv4Addr::from(bits), len);
            apply4(&mut churned, &mut mirror, p, is_insert, val);
            let _ = churned.longest_match(p.network());
            touched.push(p);
        }
        let mut fresh: Lpm4<u32> = Lpm4::new();
        for (p, v) in &mirror {
            fresh.insert(*p, *v);
        }
        prop_assert_eq!(churned.len(), fresh.len());
        for p in &touched {
            prop_assert_eq!(churned.get(*p), fresh.get(*p), "get {}", p);
        }
        let addrs: Vec<Ipv4Addr> = probes.iter().map(|&b| Ipv4Addr::from(b)).collect();
        let batch = churned.longest_match_many(&addrs);
        let fresh_batch = fresh.longest_match_many(&addrs);
        for (i, &a) in addrs.iter().enumerate() {
            prop_assert_eq!(
                churned.longest_match(a).map(|(p, v)| (p, *v)),
                fresh.longest_match(a).map(|(p, v)| (p, *v)),
                "scalar {}", a
            );
            prop_assert_eq!(batch[i], fresh_batch[i], "batched {}", a);
        }
    }

    /// IPv6 twin of the structural-equivalence property.
    #[test]
    fn lpm6_interleaved_ops_structurally_equal_fresh_build(
        ops in proptest::collection::vec(
            ((any::<u128>(), 16u8..=64), any::<bool>(), any::<u32>()),
            1..60,
        ),
        probes in proptest::collection::vec(any::<u128>(), 1..20),
    ) {
        let mut churned: Lpm6<u32> = Lpm6::new();
        let mut mirror: BTreeMap<Prefix6, u32> = BTreeMap::new();
        for i in 0..16u128 {
            let anchor = Prefix6::new(Ipv6Addr::from(0xfd00u128 << 112 | i << 96), 32);
            apply6(&mut churned, &mut mirror, anchor, true, 0);
        }
        let mut touched = Vec::new();
        for ((bits, len), is_insert, val) in ops {
            let p = Prefix6::new(Ipv6Addr::from(bits), len);
            apply6(&mut churned, &mut mirror, p, is_insert, val);
            let _ = churned.longest_match(p.network());
            touched.push(p);
        }
        let mut fresh: Lpm6<u32> = Lpm6::new();
        for (p, v) in &mirror {
            fresh.insert(*p, *v);
        }
        prop_assert_eq!(churned.len(), fresh.len());
        for p in &touched {
            prop_assert_eq!(churned.get(*p), fresh.get(*p), "get {}", p);
        }
        let addrs: Vec<Ipv6Addr> = probes.iter().map(|&b| Ipv6Addr::from(b)).collect();
        let batch = churned.longest_match_many(&addrs);
        let fresh_batch = fresh.longest_match_many(&addrs);
        for (i, &a) in addrs.iter().enumerate() {
            prop_assert_eq!(
                churned.longest_match(a).map(|(p, v)| (p, *v)),
                fresh.longest_match(a).map(|(p, v)| (p, *v)),
                "scalar {}", a
            );
            prop_assert_eq!(batch[i], fresh_batch[i], "batched {}", a);
        }
    }

    /// Every inserted IPv6 prefix (128-bit key) is found again by exact
    /// `get`, holding the value of its last insert.
    #[test]
    fn trie_u128_exact(prefixes in proptest::collection::vec(arb_prefix6(), 1..20)) {
        let mut t: Lpm6<usize> = Lpm6::new();
        for (i, p) in prefixes.iter().enumerate() {
            t.insert(*p, i);
        }
        for p in &prefixes {
            prop_assert_eq!(t.get(*p).copied(), prefixes.iter().rposition(|q| q == p));
        }
    }

    /// Interleaved inserts and removes keep the table equivalent to a naive
    /// map-based reference, LPM included.
    #[test]
    fn lpm4_interleaved_ops_match_reference(
        ops in proptest::collection::vec((arb_prefix4(), any::<bool>(), any::<u32>()), 1..60),
        probes in proptest::collection::vec(any::<u32>(), 1..30),
    ) {
        let mut table: Lpm4<u32> = Lpm4::new();
        let mut reference: std::collections::HashMap<Prefix4, u32> =
            std::collections::HashMap::new();
        for (p, is_insert, val) in ops {
            if is_insert {
                prop_assert_eq!(table.insert(p, val), reference.insert(p, val), "insert {}", p);
            } else {
                prop_assert_eq!(table.remove(p), reference.remove(&p), "remove {}", p);
            }
            prop_assert_eq!(table.len(), reference.len());
        }
        for bits in &probes {
            let addr = Ipv4Addr::from(*bits);
            let expect = reference
                .iter()
                .filter(|(p, _)| p.contains(addr))
                .max_by_key(|(p, _)| p.len())
                .map(|(p, v)| (*p, *v));
            let got = table.longest_match(addr).map(|(p, v)| {
                // Reconstruct the canonical stored prefix for comparison.
                (Prefix4::new(addr, p.len()), *v)
            });
            prop_assert_eq!(got, expect, "probe {}", addr);
        }
    }
}
