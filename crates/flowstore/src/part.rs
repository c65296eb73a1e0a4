//! The on-disk part format: one sorted immutable day-part per file.
//!
//! ```text
//! +----------------------+  offset 0
//! | magic  "FSPART1\0"   |  8 bytes
//! +----------------------+  column region (offsets in the footer are
//! | column 0 bytes       |  relative to the start of this region)
//! | column 1 bytes       |
//! | ...                  |
//! | column 12 bytes      |
//! +----------------------+
//! | footer               |  fixed-width little-endian:
//! |   stream u64         |    producer stream id
//! |   day    u64         |    day index (start / flowmon::DAY)
//! |   seq    u32         |    sequence within (stream, day)
//! |   rows   u64         |    row count
//! |   digest u64         |    FNV-1a64 over the column region
//! |   ncols  u32         |    = 13
//! |   per column:        |    offset u64 · len u64 · raw_bytes u64
//! |     ... x 13         |    min u128 · max u128
//! +----------------------+
//! | footer_len u32       |  byte length of the footer
//! | tail magic "FSP1"    |  4 bytes
//! +----------------------+
//! ```
//!
//! One column per [`FlowRecord`] field; codecs per column:
//!
//! | # | column        | codec                       | raw width |
//! |---|---------------|-----------------------------|-----------|
//! | 0 | proto         | run-length                  | 1         |
//! | 1 | src           | family RLE + u128 dictionary| 17        |
//! | 2 | dst           | family RLE + u128 dictionary| 17        |
//! | 3 | sport         | zigzag delta varint         | 2         |
//! | 4 | dport         | zigzag delta varint         | 2         |
//! | 5 | icmp          | packed u64, run-length      | 5         |
//! | 6 | start         | delta-of-delta varint       | 8         |
//! | 7 | end           | varint of `end - start`     | 8         |
//! | 8 | bytes_orig    | varint                      | 8         |
//! | 9 | bytes_reply   | varint                      | 8         |
//! | 10| packets_orig  | varint                      | 8         |
//! | 11| packets_reply | varint                      | 8         |
//! | 12| scope         | run-length                  | 1         |
//!
//! **Determinism contract.** A sealed part's bytes are a pure function of
//! `(stream, day, seq, rows)`: codecs use first-appearance dictionaries and
//! wrapping deltas, never ambient state, so the same record slice always
//! produces the same file and decoding always reproduces the exact records.
//! The footer digest is verified on every read.

use crate::codec::{
    decode_delta, decode_delta2, decode_dict, decode_rle, decode_varint, encode_delta,
    encode_delta2, encode_dict, encode_rle, encode_varint, get_uvarint, put_uvarint,
};
use crate::digest::fnv1a64;
use crate::error::{Error, Result};
use flowmon::{FlowKey, FlowRecord, IcmpMeta, Proto, Scope};
use std::net::IpAddr;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"FSPART1\0";
const TAIL_MAGIC: &[u8; 4] = b"FSP1";

/// Number of columns in a part (one per [`FlowRecord`] field).
pub const COLUMNS: usize = 13;

/// Column names, in on-disk order. Used for telemetry and debugging.
pub const COLUMN_NAMES: [&str; COLUMNS] = [
    "proto",
    "src",
    "dst",
    "sport",
    "dport",
    "icmp",
    "start",
    "end",
    "bytes_orig",
    "bytes_reply",
    "packets_orig",
    "packets_reply",
    "scope",
];

/// Natural (uncompressed) width in bytes of each column's values.
const RAW_WIDTHS: [u64; COLUMNS] = [1, 17, 17, 2, 2, 5, 8, 8, 8, 8, 8, 8, 1];

/// Per-column counter names for compressed bytes, in column order.
/// Static so `obs` counters avoid per-seal string allocation.
pub(crate) const COL_BYTES_COUNTERS: [&str; COLUMNS] = [
    "flowstore.col.proto.bytes",
    "flowstore.col.src.bytes",
    "flowstore.col.dst.bytes",
    "flowstore.col.sport.bytes",
    "flowstore.col.dport.bytes",
    "flowstore.col.icmp.bytes",
    "flowstore.col.start.bytes",
    "flowstore.col.end.bytes",
    "flowstore.col.bytes_orig.bytes",
    "flowstore.col.bytes_reply.bytes",
    "flowstore.col.packets_orig.bytes",
    "flowstore.col.packets_reply.bytes",
    "flowstore.col.scope.bytes",
];

/// Per-column counter names for raw (pre-compression) bytes.
pub(crate) const COL_RAW_COUNTERS: [&str; COLUMNS] = [
    "flowstore.col.proto.raw",
    "flowstore.col.src.raw",
    "flowstore.col.dst.raw",
    "flowstore.col.sport.raw",
    "flowstore.col.dport.raw",
    "flowstore.col.icmp.raw",
    "flowstore.col.start.raw",
    "flowstore.col.end.raw",
    "flowstore.col.bytes_orig.raw",
    "flowstore.col.bytes_reply.raw",
    "flowstore.col.packets_orig.raw",
    "flowstore.col.packets_reply.raw",
    "flowstore.col.scope.raw",
];

/// Footer metadata for one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Byte offset of the column within the column region.
    pub offset: u64,
    /// Encoded byte length.
    pub len: u64,
    /// Uncompressed size (`rows * natural width`).
    pub raw_bytes: u64,
    /// Minimum semantic value (integer mapping; addresses as raw bits).
    /// Zero when the part is empty.
    pub min: u128,
    /// Maximum semantic value. Zero when the part is empty.
    pub max: u128,
}

/// The decoded footer of a part file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footer {
    /// Producer stream id (shard or residence group).
    pub stream: u64,
    /// Day index of every row in the part.
    pub day: u64,
    /// Sequence number within `(stream, day)`.
    pub seq: u32,
    /// Row count.
    pub rows: u64,
    /// FNV-1a64 digest over the column region.
    pub digest: u64,
    /// Per-column metadata, in [`COLUMN_NAMES`] order.
    pub columns: Vec<ColumnMeta>,
}

/// Identity and summary of a sealed part on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartMeta {
    /// Path of the part file.
    pub path: PathBuf,
    /// Producer stream id.
    pub stream: u64,
    /// Day index.
    pub day: u64,
    /// Sequence within `(stream, day)`.
    pub seq: u32,
    /// Row count.
    pub rows: u64,
    /// Total encoded column bytes.
    pub stored_bytes: u64,
    /// Total uncompressed column bytes.
    pub raw_bytes: u64,
}

impl PartMeta {
    /// Canonical replay order: `(day, stream, seq)`. Day-major replay
    /// matches the day-major emission order of every producer, so merged
    /// replay reproduces the original stream byte-identically.
    pub fn canonical_key(&self) -> (u64, u64, u32) {
        (self.day, self.stream, self.seq)
    }
}

/// Canonical file name for a part: `part-s{stream}-d{day}-q{seq}.fsp`.
pub fn part_file_name(stream: u64, day: u64, seq: u32) -> String {
    format!("part-s{stream:08}-d{day:08}-q{seq:04}.fsp")
}

/// Parse a [`part_file_name`]; `None` for foreign files.
pub fn parse_part_file_name(name: &str) -> Option<(u64, u64, u32)> {
    let rest = name.strip_prefix("part-s")?.strip_suffix(".fsp")?;
    let (stream, rest) = rest.split_once("-d")?;
    let (day, seq) = rest.split_once("-q")?;
    Some((stream.parse().ok()?, day.parse().ok()?, seq.parse().ok()?))
}

fn proto_code(p: Proto) -> u64 {
    match p {
        Proto::Tcp => 0,
        Proto::Udp => 1,
        Proto::Icmp => 2,
    }
}

fn proto_from(code: u64) -> Result<Proto> {
    match code {
        0 => Ok(Proto::Tcp),
        1 => Ok(Proto::Udp),
        2 => Ok(Proto::Icmp),
        _ => Err(Error::corrupt("unknown proto code")),
    }
}

fn scope_code(s: Scope) -> u64 {
    match s {
        Scope::External => 0,
        Scope::Internal => 1,
    }
}

fn scope_from(code: u64) -> Result<Scope> {
    match code {
        0 => Ok(Scope::External),
        1 => Ok(Scope::Internal),
        _ => Err(Error::corrupt("unknown scope code")),
    }
}

/// `(family_tag, bits)` for an address: v4 → `(0, u32 bits)`, v6 → `(1, u128 bits)`.
fn addr_bits(a: IpAddr) -> (u64, u128) {
    match a {
        IpAddr::V4(v4) => (0, u128::from(u32::from(v4))),
        IpAddr::V6(v6) => (1, u128::from(v6)),
    }
}

fn addr_from(tag: u64, bits: u128) -> Result<IpAddr> {
    match tag {
        0 => {
            let v = u32::try_from(bits).map_err(|_| Error::corrupt("v4 address overflow"))?;
            Ok(IpAddr::V4(std::net::Ipv4Addr::from(v)))
        }
        1 => Ok(IpAddr::V6(std::net::Ipv6Addr::from(bits))),
        _ => Err(Error::corrupt("unknown address family tag")),
    }
}

fn icmp_pack(m: Option<IcmpMeta>) -> u64 {
    match m {
        None => 0,
        Some(m) => {
            (1u64 << 32)
                | (u64::from(m.icmp_type) << 24)
                | (u64::from(m.icmp_code) << 16)
                | u64::from(m.icmp_id)
        }
    }
}

fn icmp_unpack(v: u64) -> Result<Option<IcmpMeta>> {
    if v == 0 {
        return Ok(None);
    }
    if v >> 32 != 1 {
        return Err(Error::corrupt("bad icmp packing"));
    }
    Ok(Some(IcmpMeta {
        icmp_type: ((v >> 24) & 0xff) as u8,
        icmp_code: ((v >> 16) & 0xff) as u8,
        icmp_id: (v & 0xffff) as u16,
    }))
}

/// Address column: family tags (run-length, length-prefixed) followed by a
/// first-appearance dictionary over the address bits.
fn encode_addr(tags: &[u64], bits: &[u128]) -> Vec<u8> {
    let rle = encode_rle(tags);
    let mut out = Vec::with_capacity(rle.len() + 8);
    put_uvarint(&mut out, rle.len() as u64);
    out.extend_from_slice(&rle);
    out.extend_from_slice(&encode_dict(bits));
    out
}

fn decode_addr(buf: &[u8], rows: usize) -> Result<(Vec<u64>, Vec<u128>)> {
    let mut pos = 0usize;
    let rle_len = get_uvarint(buf, &mut pos)? as usize;
    let rle_end = pos
        .checked_add(rle_len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| Error::corrupt("address tag length out of range"))?;
    let tags = decode_rle(&buf[pos..rle_end], rows)?;
    let bits = decode_dict(&buf[rle_end..], rows)?;
    Ok((tags, bits))
}

fn minmax_u64(values: &[u64]) -> (u128, u128) {
    let min = values.iter().min().copied().unwrap_or(0);
    let max = values.iter().max().copied().unwrap_or(0);
    (u128::from(min), u128::from(max))
}

fn minmax_u128(values: &[u128]) -> (u128, u128) {
    let min = values.iter().min().copied().unwrap_or(0);
    let max = values.iter().max().copied().unwrap_or(0);
    (min, max)
}

/// Encode records into the column region plus per-column metadata.
/// Pure: bytes depend only on the record slice.
#[must_use]
pub fn encode_columns(records: &[FlowRecord]) -> (Vec<u8>, Vec<ColumnMeta>) {
    let rows = records.len();
    let mut proto = Vec::with_capacity(rows);
    let mut src_tag = Vec::with_capacity(rows);
    let mut src_bits = Vec::with_capacity(rows);
    let mut dst_tag = Vec::with_capacity(rows);
    let mut dst_bits = Vec::with_capacity(rows);
    let mut sport = Vec::with_capacity(rows);
    let mut dport = Vec::with_capacity(rows);
    let mut icmp = Vec::with_capacity(rows);
    let mut start = Vec::with_capacity(rows);
    let mut end_rel = Vec::with_capacity(rows);
    let mut end_abs = Vec::with_capacity(rows);
    let mut bytes_orig = Vec::with_capacity(rows);
    let mut bytes_reply = Vec::with_capacity(rows);
    let mut packets_orig = Vec::with_capacity(rows);
    let mut packets_reply = Vec::with_capacity(rows);
    let mut scope = Vec::with_capacity(rows);
    for r in records {
        proto.push(proto_code(r.key.proto));
        let (st, sb) = addr_bits(r.key.src);
        src_tag.push(st);
        src_bits.push(sb);
        let (dt, db) = addr_bits(r.key.dst);
        dst_tag.push(dt);
        dst_bits.push(db);
        sport.push(u64::from(r.key.sport));
        dport.push(u64::from(r.key.dport));
        icmp.push(icmp_pack(r.key.icmp));
        start.push(r.start);
        end_rel.push(r.end.wrapping_sub(r.start));
        end_abs.push(r.end);
        bytes_orig.push(r.bytes_orig);
        bytes_reply.push(r.bytes_reply);
        packets_orig.push(r.packets_orig);
        packets_reply.push(r.packets_reply);
        scope.push(scope_code(r.scope));
    }

    let blobs: [(Vec<u8>, (u128, u128)); COLUMNS] = [
        (encode_rle(&proto), minmax_u64(&proto)),
        (encode_addr(&src_tag, &src_bits), minmax_u128(&src_bits)),
        (encode_addr(&dst_tag, &dst_bits), minmax_u128(&dst_bits)),
        (encode_delta(&sport), minmax_u64(&sport)),
        (encode_delta(&dport), minmax_u64(&dport)),
        (encode_rle(&icmp), minmax_u64(&icmp)),
        (encode_delta2(&start), minmax_u64(&start)),
        (encode_varint(&end_rel), minmax_u64(&end_abs)),
        (encode_varint(&bytes_orig), minmax_u64(&bytes_orig)),
        (encode_varint(&bytes_reply), minmax_u64(&bytes_reply)),
        (encode_varint(&packets_orig), minmax_u64(&packets_orig)),
        (encode_varint(&packets_reply), minmax_u64(&packets_reply)),
        (encode_rle(&scope), minmax_u64(&scope)),
    ];

    let mut region = Vec::new();
    let mut metas = Vec::with_capacity(COLUMNS);
    for (i, (blob, (min, max))) in blobs.iter().enumerate() {
        metas.push(ColumnMeta {
            offset: region.len() as u64,
            len: blob.len() as u64,
            raw_bytes: RAW_WIDTHS[i] * rows as u64,
            min: *min,
            max: *max,
        });
        region.extend_from_slice(blob);
    }
    (region, metas)
}

/// Decode the column region back into records. Exact inverse of
/// [`encode_columns`] for any record slice.
pub fn decode_columns(region: &[u8], footer: &Footer) -> Result<Vec<FlowRecord>> {
    let rows = usize::try_from(footer.rows).map_err(|_| Error::corrupt("row count overflow"))?;
    // Every row takes at least one byte of the varint columns, so a larger
    // count is damage, caught before it sizes any buffer.
    if rows > region.len() {
        return Err(Error::corrupt("row count exceeds the column region"));
    }
    if footer.columns.len() != COLUMNS {
        return Err(Error::corrupt("wrong column count"));
    }
    // The footer sits outside the content digest, so its layout is checked
    // instead: the columns must tile the region in order, exactly as
    // `encode_columns` lays them out.
    let mut col = Vec::with_capacity(COLUMNS);
    let mut rest = region;
    for m in &footer.columns {
        let at = (region.len() - rest.len()) as u64;
        let len = usize::try_from(m.len)
            .ok()
            .filter(|&len| m.offset == at && len <= rest.len())
            .ok_or_else(|| Error::corrupt("columns do not tile the column region"))?;
        let (bytes, tail) = rest.split_at(len);
        col.push(bytes);
        rest = tail;
    }
    if !rest.is_empty() {
        return Err(Error::corrupt("columns do not tile the column region"));
    }

    let proto = decode_rle(col[0], rows)?;
    let (src_tag, src_bits) = decode_addr(col[1], rows)?;
    let (dst_tag, dst_bits) = decode_addr(col[2], rows)?;
    let sport = decode_delta(col[3], rows)?;
    let dport = decode_delta(col[4], rows)?;
    let icmp = decode_rle(col[5], rows)?;
    let start = decode_delta2(col[6], rows)?;
    let end_rel = decode_varint(col[7], rows)?;
    let bytes_orig = decode_varint(col[8], rows)?;
    let bytes_reply = decode_varint(col[9], rows)?;
    let packets_orig = decode_varint(col[10], rows)?;
    let packets_reply = decode_varint(col[11], rows)?;
    let scope = decode_rle(col[12], rows)?;

    let mut out = Vec::with_capacity(rows);
    for i in 0..rows {
        let sport_v = u16::try_from(sport[i]).map_err(|_| Error::corrupt("sport out of range"))?;
        let dport_v = u16::try_from(dport[i]).map_err(|_| Error::corrupt("dport out of range"))?;
        out.push(FlowRecord {
            key: FlowKey {
                proto: proto_from(proto[i])?,
                src: addr_from(src_tag[i], src_bits[i])?,
                dst: addr_from(dst_tag[i], dst_bits[i])?,
                sport: sport_v,
                dport: dport_v,
                icmp: icmp_unpack(icmp[i])?,
            },
            start: start[i],
            end: start[i].wrapping_add(end_rel[i]),
            bytes_orig: bytes_orig[i],
            bytes_reply: bytes_reply[i],
            packets_orig: packets_orig[i],
            packets_reply: packets_reply[i],
            scope: scope_from(scope[i])?,
        });
    }
    Ok(out)
}

fn put_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32_le(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u128_le(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn take<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let end = pos
        .checked_add(N)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| Error::corrupt("footer truncated"))?;
    let mut arr = [0u8; N];
    arr.copy_from_slice(&buf[*pos..end]);
    *pos = end;
    Ok(arr)
}

fn encode_footer(footer: &Footer) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + footer.columns.len() * 56);
    put_u64_le(&mut out, footer.stream);
    put_u64_le(&mut out, footer.day);
    put_u32_le(&mut out, footer.seq);
    put_u64_le(&mut out, footer.rows);
    put_u64_le(&mut out, footer.digest);
    put_u32_le(&mut out, footer.columns.len() as u32);
    for c in &footer.columns {
        put_u64_le(&mut out, c.offset);
        put_u64_le(&mut out, c.len);
        put_u64_le(&mut out, c.raw_bytes);
        put_u128_le(&mut out, c.min);
        put_u128_le(&mut out, c.max);
    }
    out
}

fn decode_footer(buf: &[u8]) -> Result<Footer> {
    let mut pos = 0usize;
    let stream = u64::from_le_bytes(take::<8>(buf, &mut pos)?);
    let day = u64::from_le_bytes(take::<8>(buf, &mut pos)?);
    let seq = u32::from_le_bytes(take::<4>(buf, &mut pos)?);
    let rows = u64::from_le_bytes(take::<8>(buf, &mut pos)?);
    let digest = u64::from_le_bytes(take::<8>(buf, &mut pos)?);
    let ncols = u32::from_le_bytes(take::<4>(buf, &mut pos)?) as usize;
    if ncols != COLUMNS {
        return Err(Error::corrupt("unexpected column count"));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(ColumnMeta {
            offset: u64::from_le_bytes(take::<8>(buf, &mut pos)?),
            len: u64::from_le_bytes(take::<8>(buf, &mut pos)?),
            raw_bytes: u64::from_le_bytes(take::<8>(buf, &mut pos)?),
            min: u128::from_le_bytes(take::<16>(buf, &mut pos)?),
            max: u128::from_le_bytes(take::<16>(buf, &mut pos)?),
        });
    }
    if pos != buf.len() {
        return Err(Error::corrupt("trailing bytes after footer"));
    }
    Ok(Footer {
        stream,
        day,
        seq,
        rows,
        digest,
        columns,
    })
}

fn build_part(stream: u64, day: u64, seq: u32, records: &[FlowRecord]) -> (Vec<u8>, Footer) {
    let (region, columns) = encode_columns(records);
    let footer = Footer {
        stream,
        day,
        seq,
        rows: records.len() as u64,
        digest: fnv1a64(&region),
        columns,
    };
    let footer_bytes = encode_footer(&footer);
    let mut out = Vec::with_capacity(MAGIC.len() + region.len() + footer_bytes.len() + 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&region);
    out.extend_from_slice(&footer_bytes);
    put_u32_le(&mut out, footer_bytes.len() as u32);
    out.extend_from_slice(TAIL_MAGIC);
    (out, footer)
}

/// Serialize a complete part to bytes. Pure: output depends only on the
/// arguments, so two writers given the same rows produce identical files.
#[must_use]
pub fn part_bytes(stream: u64, day: u64, seq: u32, records: &[FlowRecord]) -> Vec<u8> {
    build_part(stream, day, seq, records).0
}

/// Write a sealed part file and record its telemetry (parts sealed, rows,
/// raw/stored bytes overall and per column — all layout-invariant:
/// they depend only on the spilled stream, not the thread schedule).
pub fn write_part(
    path: impl AsRef<Path>,
    stream: u64,
    day: u64,
    seq: u32,
    records: &[FlowRecord],
) -> Result<PartMeta> {
    let path = path.as_ref();
    let (out, footer) = build_part(stream, day, seq, records);
    std::fs::write(path, &out).map_err(|e| Error::io(path, e))?;

    let stored: u64 = footer.columns.iter().map(|c| c.len).sum();
    let raw: u64 = footer.columns.iter().map(|c| c.raw_bytes).sum();
    obs::counter_add("flowstore.parts_sealed", 1);
    obs::counter_add("flowstore.rows_sealed", footer.rows);
    obs::counter_add("flowstore.bytes_stored", stored);
    obs::counter_add("flowstore.bytes_raw", raw);
    for (i, c) in footer.columns.iter().enumerate() {
        obs::counter_add(COL_BYTES_COUNTERS[i], c.len);
        obs::counter_add(COL_RAW_COUNTERS[i], c.raw_bytes);
    }
    Ok(PartMeta {
        path: path.to_path_buf(),
        stream,
        day,
        seq,
        rows: footer.rows,
        stored_bytes: stored,
        raw_bytes: raw,
    })
}

/// Read and fully decode a part file, verifying magic and content digest.
pub fn read_part(path: impl AsRef<Path>) -> Result<(Footer, Vec<FlowRecord>)> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| Error::io(path, e))?;
    let min_len = MAGIC.len() + 4 + TAIL_MAGIC.len();
    if bytes.len() < min_len || &bytes[..MAGIC.len()] != MAGIC {
        return Err(Error::corrupt(format!("bad magic in {}", path.display())));
    }
    let tail_start = bytes.len() - TAIL_MAGIC.len();
    if &bytes[tail_start..] != TAIL_MAGIC {
        return Err(Error::corrupt(format!("bad tail in {}", path.display())));
    }
    let len_start = tail_start - 4;
    let mut len_bytes = [0u8; 4];
    len_bytes.copy_from_slice(&bytes[len_start..tail_start]);
    let footer_len = u32::from_le_bytes(len_bytes) as usize;
    let footer_start = len_start
        .checked_sub(footer_len)
        .filter(|&s| s >= MAGIC.len())
        .ok_or_else(|| Error::corrupt("footer length out of range"))?;
    let footer = decode_footer(&bytes[footer_start..len_start])?;
    let region = &bytes[MAGIC.len()..footer_start];
    if fnv1a64(region) != footer.digest {
        return Err(Error::corrupt(format!(
            "content digest mismatch in {}",
            path.display()
        )));
    }
    let records = decode_columns(region, &footer)?;
    Ok((footer, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<FlowRecord> {
        let mut out = Vec::new();
        for i in 0..200u64 {
            out.push(FlowRecord {
                key: FlowKey::tcp(
                    IpAddr::V4(std::net::Ipv4Addr::from(0x0a00_0000 + i as u32 % 7)),
                    (40_000 + i % 100) as u16,
                    IpAddr::V6(std::net::Ipv6Addr::from(
                        0x2001_0db8 << 96 | u128::from(i % 5),
                    )),
                    443,
                ),
                start: 86_400_000_000 * 3 + i * 1000,
                end: 86_400_000_000 * 3 + i * 1000 + 77,
                bytes_orig: i * 31,
                bytes_reply: i * 997,
                packets_orig: i,
                packets_reply: i * 2,
                scope: if i % 9 == 0 {
                    Scope::Internal
                } else {
                    Scope::External
                },
            });
        }
        out[5].key = FlowKey::icmp(
            "10.0.0.1".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
            IcmpMeta {
                icmp_type: 8,
                icmp_code: 0,
                icmp_id: 9,
            },
        );
        out
    }

    #[test]
    fn columns_round_trip() {
        let records = sample_records();
        let (region, columns) = encode_columns(&records);
        let footer = Footer {
            stream: 1,
            day: 3,
            seq: 0,
            rows: records.len() as u64,
            digest: fnv1a64(&region),
            columns,
        };
        assert_eq!(decode_columns(&region, &footer).unwrap(), records);
    }

    #[test]
    fn file_round_trip_and_digest_check() {
        let dir = std::env::temp_dir().join(format!("flowstore-part-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(part_file_name(7, 3, 0));
        let records = sample_records();
        let meta = write_part(&path, 7, 3, 0, &records).unwrap();
        assert_eq!(meta.rows, records.len() as u64);
        let (footer, decoded) = read_part(&path).unwrap();
        assert_eq!(footer.stream, 7);
        assert_eq!(footer.day, 3);
        assert_eq!(decoded, records);

        // Flip a byte in the column region: the digest check must fail.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[MAGIC.len()] ^= 0xff;
        let bad = dir.join("corrupt.fsp");
        std::fs::write(&bad, &bytes).unwrap();
        assert!(read_part(&bad).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_name_round_trips() {
        let name = part_file_name(12, 345, 6);
        assert_eq!(parse_part_file_name(&name), Some((12, 345, 6)));
        assert_eq!(parse_part_file_name("other.fsp"), None);
        assert_eq!(parse_part_file_name("part-s1-d2-q3.txt"), None);
    }

    #[test]
    fn empty_part_round_trips() {
        let dir = std::env::temp_dir().join(format!("flowstore-empty-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(part_file_name(0, 0, 0));
        write_part(&path, 0, 0, 0, &[]).unwrap();
        let (footer, decoded) = read_part(&path).unwrap();
        assert_eq!(footer.rows, 0);
        assert!(decoded.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The part format is frozen: any change to these bytes is a format
    /// change, whatever the encoder's internals.
    #[test]
    fn sample_part_bytes_are_golden() {
        let bytes = part_bytes(1, 3, 0, &sample_records());
        assert_eq!(fnv1a64(&bytes), 0x52d9_de29_b688_7907);
    }

    #[test]
    fn writer_is_deterministic() {
        let records = sample_records();
        assert_eq!(part_bytes(1, 3, 0, &records), part_bytes(1, 3, 0, &records));
    }
}
