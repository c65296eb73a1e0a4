//! [`PartSet`]: an ordered collection of sealed parts and their merged
//! replay. Parts come from [`crate::spill_through`] (or [`crate::write_part`]
//! directly), and [`PartSet::open`] reopens a directory of them.
//!
//! Replay order is canonical — `(day, stream, seq)` — which matches the
//! day-major emission order of every producer in the workspace: the
//! single-stream residence/long-tail synthesizers (one stream, days
//! ascending) and the sharded subscriber synthesizer (for each day, shards
//! ascending). Replaying a `PartSet` through `flowmon::CollectSink`
//! therefore reproduces the original in-memory `Vec<FlowRecord>` exactly;
//! the tier-1 tests assert this by digest.

use crate::error::{Error, Result};
use crate::part::{parse_part_file_name, read_part, PartMeta};
use flowmon::{FlowRecord, FlowSink};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// Summary of a completed replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStats {
    /// Parts read.
    pub parts: u64,
    /// Rows delivered.
    pub rows: u64,
}

/// An ordered set of sealed parts.
#[derive(Debug, Clone, Default)]
pub struct PartSet {
    parts: Vec<PartMeta>,
}

impl PartSet {
    /// Scan `dir` for part files (`part-s*-d*-q*.fsp`), ordering them
    /// canonically. Foreign files are ignored; identity comes from the
    /// file name and is re-verified against the footer on read.
    pub fn open(dir: impl AsRef<Path>) -> Result<PartSet> {
        let dir = dir.as_ref();
        let entries = std::fs::read_dir(dir).map_err(|e| Error::io(dir, e))?;
        let mut parts = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| Error::io(dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            let Some((stream, day, seq)) = parse_part_file_name(name) else {
                continue;
            };
            parts.push(PartMeta {
                path: entry.path(),
                stream,
                day,
                seq,
                // Rows/bytes are summary fields; filled from the footer
                // lazily on read. Zero until then.
                rows: 0,
                stored_bytes: 0,
                raw_bytes: 0,
            });
        }
        Ok(PartSet::from_metas(parts))
    }

    /// Build a set from known metas (e.g. the returns of
    /// [`crate::write_part`]), sorting canonically.
    #[must_use]
    pub fn from_metas(mut parts: Vec<PartMeta>) -> PartSet {
        parts.sort_by_key(PartMeta::canonical_key);
        PartSet { parts }
    }

    /// The parts, in canonical `(day, stream, seq)` order.
    #[must_use]
    pub fn parts(&self) -> &[PartMeta] {
        &self.parts
    }

    /// Number of parts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when the set holds no parts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Replay every part, in canonical order, into `sink`. Each part is
    /// digest-verified on read and delivered as one `accept_batch` call
    /// (batch boundaries are part boundaries). It runs the replay loop of
    /// [`crate::spill_through`], which holds up to `2 × threads` decoded
    /// parts, on one thread, so peak memory is one decoded part.
    ///
    /// # Errors
    ///
    /// The first I/O or corrupt-part error in canonical order; no row of
    /// that part or any later one reaches `sink`.
    pub fn replay_into<S: FlowSink>(&self, sink: &mut S) -> Result<ReplayStats> {
        self.replay_on(1, sink)
    }

    /// The replay loop: up to `threads` [`obs::par::ordered`] workers read,
    /// verify and decode parts, at most `2 × threads` decoded parts are
    /// alive, and the caller feeds `sink` in canonical order until the
    /// first error.
    pub(crate) fn replay_on<S: FlowSink>(
        &self,
        threads: usize,
        sink: &mut S,
    ) -> Result<ReplayStats> {
        let mut stats = ReplayStats { parts: 0, rows: 0 };
        let mut failed = None;
        // Set with `failed`: the caller drops every later part, so workers
        // skip the ones still queued.
        let stop = AtomicBool::new(false);
        obs::par::ordered(
            self.parts.iter().collect(),
            threads,
            |_, meta| {
                if stop.load(Ordering::Relaxed) {
                    Ok(Vec::new())
                } else {
                    read_checked(meta)
                }
            },
            |_, part| {
                if failed.is_some() {
                    return;
                }
                match part {
                    Ok(records) => {
                        sink.accept_batch(&records);
                        stats.parts += 1;
                        stats.rows += records.len() as u64;
                    }
                    Err(e) => {
                        stop.store(true, Ordering::Relaxed);
                        failed = Some(e);
                    }
                }
            },
        );
        if let Some(e) = failed {
            return Err(e);
        }
        obs::counter_add("flowstore.replay.parts", stats.parts);
        obs::counter_add("flowstore.replay.rows", stats.rows);
        Ok(stats)
    }
}

/// Read and decode one part, checking its footer against the identity its
/// file name (or writer) gave it.
fn read_checked(meta: &PartMeta) -> Result<Vec<FlowRecord>> {
    let (footer, records) = read_part(&meta.path)?;
    if (footer.stream, footer.day, footer.seq) != (meta.stream, meta.day, meta.seq) {
        return Err(Error::corrupt(format!(
            "part identity mismatch: file {} says (s{}, d{}, q{})",
            meta.path.display(),
            footer.stream,
            footer.day,
            footer.seq
        )));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::part::{part_file_name, write_part};
    use flowmon::{CollectSink, FlowKey, Scope, DAY};

    fn rec(day: u64, stream: u64, i: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey::tcp(
                std::net::IpAddr::V4(std::net::Ipv4Addr::from(
                    0x0a00_0000 + (stream as u32) * 256 + i as u32,
                )),
                40_000,
                "198.51.100.1".parse().unwrap(),
                443,
            ),
            start: day * DAY + stream * 100 + i,
            end: day * DAY + stream * 100 + i + 1,
            bytes_orig: i,
            bytes_reply: i,
            packets_orig: 1,
            packets_reply: 1,
            scope: Scope::External,
        }
    }

    #[test]
    fn open_orders_canonically_and_replays() {
        let dir = std::env::temp_dir().join(format!("flowstore-store-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        // Write parts out of order: (day 1, stream 0), (day 0, stream 1),
        // (day 0, stream 0). Canonical replay is day-major.
        let mut expect = Vec::new();
        for (day, stream) in [(0u64, 0u64), (0, 1), (1, 0)] {
            let rows: Vec<_> = (0..10).map(|i| rec(day, stream, i)).collect();
            expect.extend_from_slice(&rows);
            write_part(
                dir.join(part_file_name(stream, day, 0)),
                stream,
                day,
                0,
                &rows,
            )
            .unwrap();
        }
        std::fs::write(dir.join("notes.txt"), b"ignored").unwrap();

        let set = PartSet::open(&dir).unwrap();
        assert_eq!(set.len(), 3);
        let mut collect = CollectSink::new();
        let stats = set.replay_into(&mut collect).unwrap();
        assert_eq!(stats.rows, 30);
        assert_eq!(collect.into_records(), expect);
        std::fs::remove_dir_all(&dir).ok();
    }
}
