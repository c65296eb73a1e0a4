//! Per-column lightweight compression codecs.
//!
//! Every codec is a pure function from a value slice to a byte vector and
//! back: `decode(encode(xs), xs.len()) == xs` for **all** inputs (wrapping
//! arithmetic makes the delta families lossless over the full `u64` range).
//! Encoders never consult ambient state, so a part's bytes are a function of
//! its rows alone — the foundation of the byte-identical replay contract.
//!
//! Codecs:
//! - [`encode_varint`] — plain LEB128, for byte/packet counters.
//! - [`encode_delta`] — zigzag delta-of-previous, for sorted-ish ports.
//! - [`encode_delta2`] — delta-of-delta, for near-monotone timestamps.
//! - [`encode_rle`] — run-length `(len, value)` pairs, for enum columns.
//! - [`encode_dict`] — first-appearance-order dictionary over `u128`
//!   values with varint code stream, for address columns.

use crate::error::{Error, Result};
use iputil::sym::{Sym, SymbolTable};

/// Append a LEB128 unsigned varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read a LEB128 unsigned varint, advancing `pos`.
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&b) = buf.get(*pos) else {
            return Err(Error::corrupt("varint truncated"));
        };
        *pos += 1;
        if shift >= 64 {
            return Err(Error::corrupt("varint overlong"));
        }
        v |= u64::from(b & 0x7f)
            .checked_shl(shift)
            .ok_or_else(|| Error::corrupt("varint overflow"))?;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-map a signed delta onto an unsigned varint-friendly value.
#[must_use]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a `u128` as two varints (low 64 bits then high 64 bits).
pub fn put_u128(out: &mut Vec<u8>, v: u128) {
    put_uvarint(out, v as u64);
    put_uvarint(out, (v >> 64) as u64);
}

/// Read a `u128` written by [`put_u128`].
pub fn get_u128(buf: &[u8], pos: &mut usize) -> Result<u128> {
    let lo = get_uvarint(buf, pos)?;
    let hi = get_uvarint(buf, pos)?;
    Ok(u128::from(lo) | (u128::from(hi) << 64))
}

/// Plain varint stream: one LEB128 value per row.
#[must_use]
pub fn encode_varint(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len());
    for &v in values {
        put_uvarint(&mut out, v);
    }
    out
}

/// Decode [`encode_varint`].
pub fn decode_varint(buf: &[u8], rows: usize) -> Result<Vec<u64>> {
    let mut pos = 0usize;
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        out.push(get_uvarint(buf, &mut pos)?);
    }
    expect_consumed(buf, pos)?;
    Ok(out)
}

/// Delta stream: first value raw, then zigzag(wrapping difference).
///
/// Wrapping subtraction keeps the codec lossless for arbitrary `u64`s —
/// the difference is reinterpreted as `i64`, which is a bijection.
#[must_use]
pub fn encode_delta(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len());
    let mut prev = 0u64;
    for (i, &v) in values.iter().enumerate() {
        if i == 0 {
            put_uvarint(&mut out, v);
        } else {
            put_uvarint(&mut out, zigzag(v.wrapping_sub(prev) as i64));
        }
        prev = v;
    }
    out
}

/// Decode [`encode_delta`].
pub fn decode_delta(buf: &[u8], rows: usize) -> Result<Vec<u64>> {
    let mut pos = 0usize;
    let mut out = Vec::with_capacity(rows);
    let mut prev = 0u64;
    for i in 0..rows {
        let raw = get_uvarint(buf, &mut pos)?;
        let v = if i == 0 {
            raw
        } else {
            prev.wrapping_add(unzigzag(raw) as u64)
        };
        out.push(v);
        prev = v;
    }
    expect_consumed(buf, pos)?;
    Ok(out)
}

/// Delta-of-delta stream for near-monotone timestamps: first value raw,
/// second as zigzag delta, then zigzag of the change in delta.
#[must_use]
pub fn encode_delta2(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len());
    let mut prev = 0u64;
    let mut prev_delta = 0i64;
    for (i, &v) in values.iter().enumerate() {
        let delta = v.wrapping_sub(prev) as i64;
        match i {
            0 => put_uvarint(&mut out, v),
            1 => put_uvarint(&mut out, zigzag(delta)),
            _ => put_uvarint(&mut out, zigzag(delta.wrapping_sub(prev_delta))),
        }
        prev = v;
        prev_delta = delta;
    }
    out
}

/// Decode [`encode_delta2`].
pub fn decode_delta2(buf: &[u8], rows: usize) -> Result<Vec<u64>> {
    let mut pos = 0usize;
    let mut out = Vec::with_capacity(rows);
    let mut prev = 0u64;
    let mut prev_delta = 0i64;
    for i in 0..rows {
        let raw = get_uvarint(buf, &mut pos)?;
        let (v, delta) = match i {
            0 => (raw, raw as i64),
            1 => {
                let d = unzigzag(raw);
                (prev.wrapping_add(d as u64), d)
            }
            _ => {
                let d = prev_delta.wrapping_add(unzigzag(raw));
                (prev.wrapping_add(d as u64), d)
            }
        };
        out.push(v);
        prev = v;
        prev_delta = delta;
    }
    expect_consumed(buf, pos)?;
    Ok(out)
}

/// Run-length stream: `(run_length, value)` varint pairs.
#[must_use]
pub fn encode_rle(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut iter = values.iter();
    let Some(&first) = iter.next() else {
        return out;
    };
    let mut run_value = first;
    let mut run_len: u64 = 1;
    for &v in iter {
        if v == run_value {
            run_len += 1;
        } else {
            put_uvarint(&mut out, run_len);
            put_uvarint(&mut out, run_value);
            run_value = v;
            run_len = 1;
        }
    }
    put_uvarint(&mut out, run_len);
    put_uvarint(&mut out, run_value);
    out
}

/// Decode [`encode_rle`].
pub fn decode_rle(buf: &[u8], rows: usize) -> Result<Vec<u64>> {
    let mut pos = 0usize;
    let mut out = Vec::with_capacity(rows);
    while out.len() < rows {
        let run_len = get_uvarint(buf, &mut pos)?;
        let value = get_uvarint(buf, &mut pos)?;
        // Compared against the rows left, which the loop guard keeps
        // positive: a damaged run length near `u64::MAX` must not overflow.
        if run_len == 0 || run_len > (rows - out.len()) as u64 {
            return Err(Error::corrupt("rle run exceeds row count"));
        }
        for _ in 0..run_len {
            out.push(value);
        }
    }
    expect_consumed(buf, pos)?;
    Ok(out)
}

/// Dictionary stream over `u128` values: a first-appearance-order
/// dictionary (`count`, then each entry via [`put_u128`]) followed by one
/// varint code per row. First-appearance order makes the encoding a pure
/// function of the value sequence — no hash-order dependence.
#[must_use]
pub fn encode_dict(values: &[u128]) -> Vec<u8> {
    // Interning hashes each row once (FxHash); codes are the table's dense
    // symbols, issued in first-appearance order, and the dictionary is
    // written from the table's symbol-ordered slice — so the hash never
    // decides a byte of the output.
    let mut dict: SymbolTable<u128> = SymbolTable::new();
    let codes: Vec<Sym> = values.iter().map(|v| dict.intern(v)).collect();
    let mut out = Vec::new();
    put_uvarint(&mut out, dict.len() as u64);
    for &v in dict.as_slice() {
        put_u128(&mut out, v);
    }
    for c in codes {
        put_uvarint(&mut out, c.index() as u64);
    }
    out
}

/// Decode [`encode_dict`].
pub fn decode_dict(buf: &[u8], rows: usize) -> Result<Vec<u128>> {
    let mut pos = 0usize;
    let dict_len = get_uvarint(buf, &mut pos)? as usize;
    if rows == 0 && dict_len != 0 {
        return Err(Error::corrupt("dictionary for empty column"));
    }
    let mut dict = Vec::with_capacity(dict_len.min(rows));
    for _ in 0..dict_len {
        dict.push(get_u128(buf, &mut pos)?);
    }
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        let code = get_uvarint(buf, &mut pos)? as usize;
        let Some(&v) = dict.get(code) else {
            return Err(Error::corrupt("dictionary code out of range"));
        };
        out.push(v);
    }
    expect_consumed(buf, pos)?;
    Ok(out)
}

fn expect_consumed(buf: &[u8], pos: usize) -> Result<()> {
    if pos == buf.len() {
        Ok(())
    } else {
        Err(Error::corrupt("trailing bytes after column"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_extremes() {
        let xs = vec![0, 1, 127, 128, u64::MAX, u64::MAX - 1, 1 << 63];
        let enc = encode_varint(&xs);
        assert_eq!(decode_varint(&enc, xs.len()).ok(), Some(xs));
    }

    #[test]
    fn delta_round_trips_wrapping() {
        let xs = vec![u64::MAX, 0, 5, 3, u64::MAX, u64::MAX / 2];
        let enc = encode_delta(&xs);
        assert_eq!(decode_delta(&enc, xs.len()).ok(), Some(xs));
    }

    #[test]
    fn delta2_round_trips_wrapping() {
        let xs = vec![10, 20, 30, 25, u64::MAX, 0, 0, 7];
        let enc = encode_delta2(&xs);
        assert_eq!(decode_delta2(&enc, xs.len()).ok(), Some(xs));
    }

    #[test]
    fn rle_round_trips_and_compresses_runs() {
        let xs = vec![4u64; 1000];
        let enc = encode_rle(&xs);
        assert!(enc.len() < 8);
        assert_eq!(decode_rle(&enc, xs.len()).ok(), Some(xs));
    }

    #[test]
    fn dict_round_trips_first_appearance_order() {
        let xs = vec![9u128, 7, 9, u128::MAX, 7, 0];
        let enc = encode_dict(&xs);
        assert_eq!(decode_dict(&enc, xs.len()).ok(), Some(xs));
    }

    #[test]
    fn empty_columns_round_trip() {
        assert_eq!(decode_varint(&encode_varint(&[]), 0).ok(), Some(vec![]));
        assert_eq!(decode_delta(&encode_delta(&[]), 0).ok(), Some(vec![]));
        assert_eq!(decode_delta2(&encode_delta2(&[]), 0).ok(), Some(vec![]));
        assert_eq!(decode_rle(&encode_rle(&[]), 0).ok(), Some(vec![]));
        assert_eq!(decode_dict(&encode_dict(&[]), 0).ok(), Some(vec![]));
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        assert!(decode_varint(&[0x80], 1).is_err());
        assert!(decode_rle(&[2, 1, 9, 9], 1).is_err());
        assert!(decode_dict(&encode_varint(&[1]), 1).is_err());
        // A run length near `u64::MAX` after a valid run must not overflow
        // the bound check (or push ~2^64 values).
        assert!(decode_rle(&encode_varint(&[1, 7, u64::MAX, 7]), 2).is_err());
    }
}
