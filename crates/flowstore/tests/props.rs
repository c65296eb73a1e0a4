//! Property tests for the flow store: codec round-trip identity over the
//! full value domain, the dictionary encoder's bytes against a reference
//! encoder, part encode/decode identity and determinism for arbitrary
//! records, and footer min/max consistency.

use flowmon::{FlowKey, FlowRecord, IcmpMeta, Proto, Scope};
use flowstore::codec::{
    decode_delta, decode_delta2, decode_dict, decode_rle, decode_varint, encode_delta,
    encode_delta2, encode_dict, encode_rle, encode_varint, put_u128, put_uvarint,
};
use flowstore::{part_bytes, records_digest, write_part};
use proptest::prelude::*;
use std::net::IpAddr;
use std::path::PathBuf;

/// A temp directory unique to this process and test, removed on drop, so
/// a failing case cleans up too and concurrent runs never share it.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(test: &str) -> ScratchDir {
        let dir =
            std::env::temp_dir().join(format!("flowstore-prop-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn arb_record() -> impl Strategy<Value = FlowRecord> {
    (
        (any::<u8>(), any::<bool>(), any::<u128>(), any::<u128>()),
        (
            any::<u16>(),
            any::<u16>(),
            any::<u8>(),
            any::<u8>(),
            any::<u16>(),
        ),
        (any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        any::<bool>(),
    )
        .prop_map(
            |(
                (proto_sel, v6, src_bits, dst_bits),
                (sport, dport, icmp_type, icmp_code, icmp_id),
                (start, end),
                (bytes_orig, bytes_reply, packets_orig, packets_reply),
                internal,
            )| {
                let proto = match proto_sel % 3 {
                    0 => Proto::Tcp,
                    1 => Proto::Udp,
                    _ => Proto::Icmp,
                };
                let addr = |bits: u128| -> IpAddr {
                    if v6 {
                        IpAddr::V6(std::net::Ipv6Addr::from(bits))
                    } else {
                        IpAddr::V4(std::net::Ipv4Addr::from(bits as u32))
                    }
                };
                let icmp = (proto == Proto::Icmp).then_some(IcmpMeta {
                    icmp_type,
                    icmp_code,
                    icmp_id,
                });
                FlowRecord {
                    key: FlowKey {
                        proto,
                        src: addr(src_bits),
                        dst: addr(dst_bits),
                        sport,
                        dport,
                        icmp,
                    },
                    start,
                    end,
                    bytes_orig,
                    bytes_reply,
                    packets_orig,
                    packets_reply,
                    scope: if internal {
                        Scope::Internal
                    } else {
                        Scope::External
                    },
                }
            },
        )
}

fn arb_records() -> impl Strategy<Value = Vec<FlowRecord>> {
    proptest::collection::vec(arb_record(), 0..80)
}

/// A reference dictionary encoder over a sorted value → code map: the
/// format's bytes, written the plainest way.
fn encode_dict_btree(values: &[u128]) -> Vec<u8> {
    let mut codes_by_value = std::collections::BTreeMap::new();
    let mut dict = Vec::new();
    let mut codes = Vec::with_capacity(values.len());
    for &v in values {
        let next = dict.len() as u64;
        let code = *codes_by_value.entry(v).or_insert_with(|| {
            dict.push(v);
            next
        });
        codes.push(code);
    }
    let mut out = Vec::new();
    put_uvarint(&mut out, dict.len() as u64);
    for &v in &dict {
        put_u128(&mut out, v);
    }
    for &c in &codes {
        put_uvarint(&mut out, c);
    }
    out
}

proptest! {
    /// Varint codec: decode(encode(xs)) == xs over the full u64 domain.
    #[test]
    fn varint_round_trip(xs in proptest::collection::vec(any::<u64>(), 0..200)) {
        prop_assert_eq!(decode_varint(&encode_varint(&xs), xs.len()).unwrap(), xs);
    }

    /// Delta codec: lossless for arbitrary (unsorted, wrapping) values.
    #[test]
    fn delta_round_trip(xs in proptest::collection::vec(any::<u64>(), 0..200)) {
        prop_assert_eq!(decode_delta(&encode_delta(&xs), xs.len()).unwrap(), xs);
    }

    /// Delta-of-delta codec: lossless for arbitrary values.
    #[test]
    fn delta2_round_trip(xs in proptest::collection::vec(any::<u64>(), 0..200)) {
        prop_assert_eq!(decode_delta2(&encode_delta2(&xs), xs.len()).unwrap(), xs);
    }

    /// Run-length codec: lossless, including degenerate run shapes.
    #[test]
    fn rle_round_trip(xs in proptest::collection::vec(0u64..4, 0..300)) {
        prop_assert_eq!(decode_rle(&encode_rle(&xs), xs.len()).unwrap(), xs);
    }

    /// Dictionary codec: lossless over u128 values with repeats.
    #[test]
    fn dict_round_trip(xs in proptest::collection::vec(any::<u128>(), 0..120)) {
        prop_assert_eq!(decode_dict(&encode_dict(&xs), xs.len()).unwrap(), xs);
    }

    /// The dictionary encoder writes the reference encoder's bytes, over
    /// columns with many repeats drawn from a small pool of values.
    #[test]
    fn dict_matches_the_reference_encoder(
        pool in proptest::collection::vec(any::<u128>(), 1..16),
        small in proptest::collection::vec(0u32..300, 1..8),
        picks in proptest::collection::vec(any::<u16>(), 0..400),
    ) {
        let pool: Vec<u128> = pool.into_iter().chain(small.into_iter().map(u128::from)).collect();
        let xs: Vec<u128> = picks.iter().map(|&i| pool[usize::from(i) % pool.len()]).collect();
        prop_assert_eq!(encode_dict(&xs), encode_dict_btree(&xs));
    }

    /// A full part round-trips arbitrary records exactly (written via the
    /// file path, re-read with digest verification).
    #[test]
    fn part_round_trip(records in arb_records(), stream in any::<u64>(), day in any::<u64>()) {
        let dir = ScratchDir::new("part");
        let path = dir.0.join("case.fsp");
        write_part(&path, stream, day, 0, &records).unwrap();
        let (footer, decoded) = flowstore::read_part(&path).unwrap();
        prop_assert_eq!(footer.rows as usize, records.len());
        prop_assert_eq!(&decoded, &records);
        prop_assert_eq!(records_digest(&decoded), records_digest(&records));
    }

    /// Part encoding is a pure function of (identity, rows).
    #[test]
    fn part_bytes_deterministic(records in arb_records()) {
        prop_assert_eq!(part_bytes(3, 9, 1, &records), part_bytes(3, 9, 1, &records));
    }

    /// Footer min/max matches the semantic min/max of the decoded values
    /// for every numeric column (addresses compare by raw bit value).
    #[test]
    fn footer_minmax_consistent(records in arb_records()) {
        let dir = ScratchDir::new("minmax");
        let path = dir.0.join("case.fsp");
        write_part(&path, 0, 0, 0, &records).unwrap();
        let (footer, _) = flowstore::read_part(&path).unwrap();

        let minmax = |vals: Vec<u128>| -> (u128, u128) {
            (
                vals.iter().min().copied().unwrap_or(0),
                vals.iter().max().copied().unwrap_or(0),
            )
        };
        let addr_bits = |a: IpAddr| -> u128 {
            match a {
                IpAddr::V4(v4) => u128::from(u32::from(v4)),
                IpAddr::V6(v6) => u128::from(v6),
            }
        };
        let cases: Vec<(usize, Vec<u128>)> = vec![
            (1, records.iter().map(|r| addr_bits(r.key.src)).collect()),
            (2, records.iter().map(|r| addr_bits(r.key.dst)).collect()),
            (3, records.iter().map(|r| u128::from(r.key.sport)).collect()),
            (4, records.iter().map(|r| u128::from(r.key.dport)).collect()),
            (6, records.iter().map(|r| u128::from(r.start)).collect()),
            (7, records.iter().map(|r| u128::from(r.end)).collect()),
            (8, records.iter().map(|r| u128::from(r.bytes_orig)).collect()),
            (9, records.iter().map(|r| u128::from(r.bytes_reply)).collect()),
            (10, records.iter().map(|r| u128::from(r.packets_orig)).collect()),
            (11, records.iter().map(|r| u128::from(r.packets_reply)).collect()),
        ];
        for (col, vals) in cases {
            let (min, max) = minmax(vals);
            prop_assert_eq!(footer.columns[col].min, min, "col {} min", col);
            prop_assert_eq!(footer.columns[col].max, max, "col {} max", col);
        }
    }
}
