//! Lookup-semantics cases for [`crate::Lpm4`]/[`crate::Lpm6`]: each test is
//! one list of steps run by the harness in `lpm`'s tests (scalar, batched
//! and value-only answers, on a small and on an anchored table). The cases
//! were first written for the radix trie the tables replaced; the module
//! keeps that name so every case keeps its test name.

#[cfg(test)]
mod tests {
    use crate::lpm::tests::check;
    use crate::lpm::tests::Step::{Insert, Keys, Len, Lookup, Remove};
    use crate::Lpm4;
    use std::net::Ipv4Addr;

    #[test]
    fn lpm_basic() {
        check(&[
            Len(0),
            Insert("10.0.0.0/8", 1, None),
            Insert("10.20.0.0/16", 2, None),
            Insert("0.0.0.0/0", 3, None),
            Len(3),
            Lookup("10.20.5.5", Some(("10.20.0.0/16", 2))),
            Lookup("10.1.1.1", Some(("10.0.0.0/8", 1))),
            Lookup("192.168.1.1", Some(("0.0.0.0/0", 3))),
        ]);
    }

    #[test]
    fn lpm_no_default_misses() {
        check(&[
            Insert("192.0.2.0/24", 1, None),
            Lookup("192.0.3.0", None),
            Lookup("192.0.2.255", Some(("192.0.2.0/24", 1))),
        ]);
    }

    #[test]
    fn insert_replaces() {
        check(&[
            Insert("10.0.0.0/8", 1, None),
            Insert("10.0.0.0/8", 2, Some(1)),
            Len(1),
            // Same for long prefixes (below the 16-bit root table).
            Insert("10.20.0.0/24", 5, None),
            Insert("10.20.0.0/24", 6, Some(5)),
            Len(2),
            Lookup("10.20.0.1", Some(("10.20.0.0/24", 6))),
            Lookup("10.9.0.1", Some(("10.0.0.0/8", 2))),
        ]);
    }

    #[test]
    fn remove_works() {
        check(&[
            Insert("10.0.0.0/8", 1, None),
            Insert("10.20.0.0/16", 2, None),
            Remove("10.20.0.0/16", Some(2)),
            Remove("10.20.0.0/16", None),
            Len(1),
            Lookup("10.20.1.1", Some(("10.0.0.0/8", 1))),
        ]);
    }

    #[test]
    fn remove_short_recomputes_fallback() {
        // A deeper short prefix shadows the /8; removing it must uncover
        // the /8 again on every slot it covered.
        check(&[
            Insert("10.0.0.0/8", 1, None),
            Insert("10.0.0.0/12", 2, None),
            Lookup("10.1.1.1", Some(("10.0.0.0/12", 2))),
            Remove("10.0.0.0/12", Some(2)),
            Lookup("10.1.1.1", Some(("10.0.0.0/8", 1))),
            Remove("10.0.0.0/8", Some(1)),
            Lookup("10.1.1.1", None),
            Len(0),
        ]);
    }

    #[test]
    fn key_is_truncated_on_insert() {
        // Host bits are dropped: the same /8 is replaced, not added.
        check(&[
            Insert("10.1.2.3/8", 9, None),
            Insert("10.0.0.0/8", 10, Some(9)),
            Keys(&["10.0.0.0/8"]),
            Lookup("10.200.0.1", Some(("10.0.0.0/8", 10))),
        ]);
    }

    #[test]
    fn root_stride_boundary_lengths() {
        // Lengths just above, at and below the 16-bit root table coexist.
        check(&[
            Insert("10.20.0.0/15", 15, None),
            Insert("10.20.0.0/16", 16, None),
            Insert("10.20.128.0/17", 17, None),
            Lookup("10.20.128.1", Some(("10.20.128.0/17", 17))),
            Lookup("10.20.0.1", Some(("10.20.0.0/16", 16))),
            Lookup("10.21.0.1", Some(("10.20.0.0/15", 15))),
        ]);
    }

    #[test]
    fn split_at_divergence_point() {
        // Two /24s sharing 20 bits, then their /20 ancestor.
        check(&[
            Insert("10.20.16.0/24", 1, None),
            Insert("10.20.24.0/24", 2, None),
            Lookup("10.20.16.255", Some(("10.20.16.0/24", 1))),
            Lookup("10.20.24.255", Some(("10.20.24.0/24", 2))),
            Lookup("10.20.31.255", None),
            Insert("10.20.16.0/20", 3, None),
            Lookup("10.20.31.255", Some(("10.20.16.0/20", 3))),
            Lookup("10.20.16.255", Some(("10.20.16.0/24", 1))),
            Len(3),
        ]);
    }

    #[test]
    fn ancestor_inserted_after_descendant() {
        check(&[
            Insert("192.168.1.0/24", 1, None),
            Insert("192.168.0.0/18", 2, None),
            Lookup("192.168.1.1", Some(("192.168.1.0/24", 1))),
            Lookup("192.168.32.1", Some(("192.168.0.0/18", 2))),
        ]);
    }

    #[test]
    fn lpm4_wrapper() {
        check(&[
            Insert("10.0.0.0/8", 1, None),
            Insert("10.9.0.0/16", 2, None),
            Lookup("10.9.4.4", Some(("10.9.0.0/16", 2))),
            Len(2),
            Remove("10.9.0.0/16", Some(2)),
            Lookup("10.9.4.4", Some(("10.0.0.0/8", 1))),
        ]);
    }

    #[test]
    fn lpm6_wrapper() {
        check(&[
            Insert("2001:db8::/32", 1, None),
            Insert("2001:db8:ff::/48", 2, None),
            Lookup("2001:db8:ff::1", Some(("2001:db8:ff::/48", 2))),
            Lookup("2001:db8:fe::1", Some(("2001:db8::/32", 1))),
            Lookup("2002::1", None),
            Remove("2001:db8:ff::/48", Some(2)),
            Lookup("2001:db8:ff::1", Some(("2001:db8::/32", 1))),
        ]);
    }

    #[test]
    fn full_length_host_routes() {
        check(&[
            Insert("192.168.1.1/32", 7, None),
            Insert("2001:db8::1/128", 9, None),
            Lookup("192.168.1.1", Some(("192.168.1.1/32", 7))),
            Lookup("192.168.1.2", None),
            Lookup("2001:db8::1", Some(("2001:db8::1/128", 9))),
            Lookup("2001:db8::2", None),
        ]);
    }

    #[test]
    fn for_each_visits_everything_in_order() {
        // Stored prefixes come back in (bits, len) order whatever the
        // insertion order — the order the compile consumes them in.
        check(&[
            Insert("10.0.0.0/8", 1, None),
            Insert("10.20.0.0/16", 2, None),
            Insert("11.0.0.0/8", 3, None),
            Insert("0.0.0.0/0", 0, None),
            Keys(&["0.0.0.0/0", "10.0.0.0/8", "10.20.0.0/16", "11.0.0.0/8"]),
        ]);
    }

    #[test]
    fn longest_match_many_preserves_order_and_dedupes() {
        let mut t: Lpm4<u8> = Lpm4::new();
        t.insert("10.0.0.0/8".parse().unwrap(), 1);
        t.insert("10.9.0.0/16".parse().unwrap(), 2);
        let addrs: Vec<Ipv4Addr> = ["10.9.0.1", "172.16.0.1", "10.1.2.3", "10.9.0.1"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let got = t.longest_match_many(&addrs);
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].map(|(p, v)| (p.len(), *v)), Some((16, 2)));
        assert_eq!(got[1], None);
        assert_eq!(got[2].map(|(p, v)| (p.len(), *v)), Some((8, 1)));
        assert_eq!(got[3].map(|(p, v)| (p.len(), *v)), Some((16, 2)));
        // Batched must agree with one-at-a-time on every input.
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(
                got[i].map(|(p, v)| (p, *v)),
                t.longest_match(a).map(|(p, v)| (p, *v))
            );
        }
    }
}
