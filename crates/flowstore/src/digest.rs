//! Content digests for flow streams.
//!
//! [`records_digest`] and [`DigestSink`] compute the same FNV-1a64 value
//! over a record sequence — one from a slice, one streaming — so a live
//! synthesis run can be fingerprinted in O(1) memory and later compared
//! against a part replay without materializing either side.
//!
//! The digest is FNV-1a64 over each record's 96-byte encoding, records
//! in stream order. Integers are little-endian; addresses are `u128` bits
//! (a v4 address zero-extended from its `u32`):
//!
//! | bytes | field                                            |
//! |-------|--------------------------------------------------|
//! | 1     | proto (tcp 0, udp 1, icmp 2)                     |
//! | 1     | src family (v4 0, v6 1)                          |
//! | 16    | src bits                                         |
//! | 1     | dst family                                       |
//! | 16    | dst bits                                         |
//! | 2 + 2 | sport, dport                                     |
//! | 8     | icmp: 0, or bit 32 set over type, code, id at bits 24, 16, 0 |
//! | 8 × 6 | start, end, bytes_orig, bytes_reply, packets_orig, packets_reply |
//! | 1     | scope (external 0, internal 1)                   |
//!
//! Most of those bytes are the high zero bytes of small fields, and an
//! FNV-1a step over a zero byte is a bare multiply (`(h ^ 0) * P`), so
//! each field folds its significant bytes one by one and its `k` high
//! zero bytes with one multiply by `P^k`. The value is exactly the
//! byte-wise one.

use flowmon::{FlowRecord, FlowSink};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` (wrapping) for `k` in `0..=16`: the fold of `k` zero bytes.
const PRIME_POW: [u64; 17] = {
    let mut pow = [1u64; 17];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// FNV-1a64 over a byte slice.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold one little-endian integer whose top `zero_bits` are clear: its
/// significant low bytes byte by byte, its high zero bytes in one multiply.
#[inline]
fn fold_int(h: &mut u64, le: &[u8], zero_bits: u32) {
    let sig = le.len() - (zero_bits / 8) as usize;
    for &b in &le[..sig] {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
    *h = h.wrapping_mul(PRIME_POW[le.len() - sig]);
}

/// [`fold_int`] over any primitive integer.
macro_rules! fold {
    ($h:expr, $v:expr) => {{
        let v = $v;
        fold_int($h, &v.to_le_bytes(), v.leading_zeros());
    }};
}

fn fold_record(h: &mut u64, r: &FlowRecord) {
    let (src_tag, src_bits): (u8, u128) = match r.key.src {
        std::net::IpAddr::V4(a) => (0, u128::from(u32::from(a))),
        std::net::IpAddr::V6(a) => (1, u128::from(a)),
    };
    let (dst_tag, dst_bits): (u8, u128) = match r.key.dst {
        std::net::IpAddr::V4(a) => (0, u128::from(u32::from(a))),
        std::net::IpAddr::V6(a) => (1, u128::from(a)),
    };
    let proto: u8 = match r.key.proto {
        flowmon::Proto::Tcp => 0,
        flowmon::Proto::Udp => 1,
        flowmon::Proto::Icmp => 2,
    };
    let icmp: u64 = match r.key.icmp {
        None => 0,
        Some(m) => {
            (1u64 << 32)
                | (u64::from(m.icmp_type) << 24)
                | (u64::from(m.icmp_code) << 16)
                | u64::from(m.icmp_id)
        }
    };
    let scope: u8 = match r.scope {
        flowmon::Scope::External => 0,
        flowmon::Scope::Internal => 1,
    };
    fold!(h, proto);
    fold!(h, src_tag);
    fold!(h, src_bits);
    fold!(h, dst_tag);
    fold!(h, dst_bits);
    fold!(h, r.key.sport);
    fold!(h, r.key.dport);
    fold!(h, icmp);
    fold!(h, r.start);
    fold!(h, r.end);
    fold!(h, r.bytes_orig);
    fold!(h, r.bytes_reply);
    fold!(h, r.packets_orig);
    fold!(h, r.packets_reply);
    fold!(h, scope);
}

/// Order-sensitive digest of a record sequence. Equal sequences — and only
/// equal sequences, up to hash collisions — produce equal digests.
#[must_use]
pub fn records_digest(records: &[FlowRecord]) -> u64 {
    let mut h = FNV_OFFSET;
    for r in records {
        fold_record(&mut h, r);
    }
    h
}

/// A [`FlowSink`] that fingerprints the stream in O(1) memory.
///
/// `DigestSink` fed a stream reports the same digest as
/// [`records_digest`] over the equivalent `Vec` — the bridge between
/// spill-scale runs (no `Vec` exists) and in-memory verification.
#[derive(Debug, Clone)]
pub struct DigestSink {
    hash: u64,
    count: u64,
}

impl DigestSink {
    /// A fresh digest over the empty stream.
    #[must_use]
    pub fn new() -> DigestSink {
        DigestSink {
            hash: FNV_OFFSET,
            count: 0,
        }
    }

    /// The digest of everything accepted so far.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.hash
    }

    /// Number of records accepted.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink::new()
    }
}

impl FlowSink for DigestSink {
    fn accept(&mut self, record: &FlowRecord) {
        fold_record(&mut self.hash, record);
        self.count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmon::{FlowKey, Scope};

    fn rec(i: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey::tcp(
                "10.1.2.3".parse().unwrap(),
                (i % 65_536) as u16,
                "203.0.113.9".parse().unwrap(),
                443,
            ),
            start: i * 100,
            end: i * 100 + 5,
            bytes_orig: i,
            bytes_reply: i * 3,
            packets_orig: 1,
            packets_reply: 2,
            scope: Scope::External,
        }
    }

    #[test]
    fn sink_matches_slice_digest() {
        let records: Vec<_> = (0..500).map(rec).collect();
        let mut sink = DigestSink::new();
        sink.accept_batch(&records);
        assert_eq!(sink.digest(), records_digest(&records));
        assert_eq!(sink.count(), 500);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = vec![rec(1), rec(2)];
        let b = vec![rec(2), rec(1)];
        assert_ne!(records_digest(&a), records_digest(&b));
    }

    /// The documented 96-byte encoding of one record, written out field by
    /// field.
    fn encoding(r: &FlowRecord) -> Vec<u8> {
        let addr = |a: std::net::IpAddr| -> (u8, u128) {
            match a {
                std::net::IpAddr::V4(a) => (0, u128::from(u32::from(a))),
                std::net::IpAddr::V6(a) => (1, u128::from(a)),
            }
        };
        let (src_tag, src) = addr(r.key.src);
        let (dst_tag, dst) = addr(r.key.dst);
        let proto = match r.key.proto {
            flowmon::Proto::Tcp => 0u8,
            flowmon::Proto::Udp => 1,
            flowmon::Proto::Icmp => 2,
        };
        let icmp = r.key.icmp.map_or(0u64, |m| {
            1 << 32
                | u64::from(m.icmp_type) << 24
                | u64::from(m.icmp_code) << 16
                | u64::from(m.icmp_id)
        });
        let scope = match r.scope {
            Scope::External => 0u8,
            Scope::Internal => 1,
        };
        let mut out = vec![proto, src_tag];
        out.extend_from_slice(&src.to_le_bytes());
        out.push(dst_tag);
        out.extend_from_slice(&dst.to_le_bytes());
        out.extend_from_slice(&r.key.sport.to_le_bytes());
        out.extend_from_slice(&r.key.dport.to_le_bytes());
        for v in [
            icmp,
            r.start,
            r.end,
            r.bytes_orig,
            r.bytes_reply,
            r.packets_orig,
            r.packets_reply,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.push(scope);
        assert_eq!(out.len(), 96);
        out
    }

    /// FNV-1a64, one byte at a time.
    fn fnv_bytewise(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Records over every field's edge values: zero, small and maximal
    /// integers, v4 and v6 addresses at both ends of their ranges, each
    /// protocol (icmp with empty and full metadata) and both scopes.
    fn edge_records() -> Vec<FlowRecord> {
        use flowmon::IcmpMeta;
        use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
        let ints = [0u64, 1, 0x80, 0x1_0000, 0x1234_5678_9abc, u64::MAX];
        let ports = [0u16, 1, 0x100, u16::MAX];
        // Endpoints of a flow share a family: v4 then v6, three of each.
        let addrs: [[IpAddr; 3]; 2] = [
            [
                Ipv4Addr::from(0).into(),
                Ipv4Addr::from(u32::MAX).into(),
                "10.1.2.3".parse().unwrap(),
            ],
            [
                Ipv6Addr::from(0).into(),
                Ipv6Addr::from(u128::MAX).into(),
                "2001:db8::1".parse().unwrap(),
            ],
        ];
        let icmps = [
            IcmpMeta {
                icmp_type: 0,
                icmp_code: 0,
                icmp_id: 0,
            },
            IcmpMeta {
                icmp_type: u8::MAX,
                icmp_code: u8::MAX,
                icmp_id: u16::MAX,
            },
        ];
        (0..360usize)
            .map(|i| {
                let int = |k: usize| ints[(i * (2 * k + 1) + k) % ints.len()];
                // Protocol, src, dst, family and scope cycle independently
                // (digits of `i` in bases 3, 3, 3, 2, 2).
                let family = &addrs[(i / 27) % 2];
                let src = family[(i / 3) % 3];
                let dst = family[(i / 9) % 3];
                let key = match i % 3 {
                    0 => FlowKey::tcp(src, ports[i % 4], dst, ports[(i / 4) % 4]),
                    1 => FlowKey::udp(src, ports[(i / 2) % 4], dst, ports[i % 4]),
                    _ => FlowKey::icmp(src, dst, icmps[(i / 3) % 2]),
                };
                FlowRecord {
                    key,
                    start: int(0),
                    end: int(1),
                    bytes_orig: int(2),
                    bytes_reply: int(3),
                    packets_orig: int(4),
                    packets_reply: int(5),
                    scope: if (i / 54) % 2 == 0 {
                        Scope::External
                    } else {
                        Scope::Internal
                    },
                }
            })
            .collect()
    }

    #[test]
    fn digest_is_bytewise_fnv_over_the_documented_encoding() {
        let records = edge_records();
        for r in &records {
            let one = std::slice::from_ref(r);
            assert_eq!(records_digest(one), fnv_bytewise(&encoding(r)), "{r:?}");
        }
        let bytes: Vec<u8> = records.iter().flat_map(encoding).collect();
        let expect = fnv_bytewise(&bytes);
        assert_eq!(records_digest(&records), expect);
        let mut sink = DigestSink::new();
        for r in &records {
            sink.accept(r);
        }
        assert_eq!(sink.digest(), expect);
    }

    #[test]
    fn empty_stream_digest_is_offset_basis() {
        assert_eq!(records_digest(&[]), DigestSink::new().digest());
    }
}
