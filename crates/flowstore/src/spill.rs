//! Spilling a record stream into sealed day-parts: [`spill_through`] for
//! task-parallel producers (one part per task, every failure an [`Error`]
//! value), and [`SpillSink`] for a [`FlowSink`] stream.
//!
//! `SpillSink`'s producer contract (records of one day arrive contiguously,
//! days ascending) makes a day boundary a seal point, so peak memory is one
//! in-flight day of one stream. `FlowSink::accept` cannot return errors, so
//! the first I/O failure is latched and surfaced by [`SpillSink::finish`];
//! subsequent records are dropped (the run is already lost — determinism of
//! the error beats partial output).

use crate::digest::DigestSink;
use crate::error::{Error, Result};
use crate::part::{part_file_name, write_part, PartMeta};
use crate::store::PartSet;
use flowmon::{day_of, FlowRecord, FlowSink};
use std::path::{Path, PathBuf};

/// Summary of a completed [`spill_through`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillStats {
    /// Parts written and replayed: one per task.
    pub parts: u64,
    /// Rows replayed into the sink.
    pub rows: u64,
    /// Digest of the stream; the live and replayed digests are equal.
    pub digest: u64,
}

/// Spill a task-parallel record stream through day-parts under `dir`, then
/// replay the parts into `sink`.
///
/// `dir` is cleared and created. Up to `threads` workers of
/// [`obs::par::ordered`] run `produce(task) -> (stream, day, records)` and
/// write the records as part `(stream, day, 0)`; the caller digests them
/// in task order. The parts then replay into `sink` in canonical
/// `(day, stream)` order and must digest the same — so `tasks` must be in
/// canonical order, one task per identity.
///
/// # Errors
///
/// The first I/O or corrupt-part error in task order, or
/// [`Error::Diverged`] when the replay is not the live stream (`sink` may
/// have seen its rows by then).
pub fn spill_through<T: Send, S: FlowSink>(
    dir: impl AsRef<Path>,
    tasks: Vec<T>,
    threads: usize,
    produce: impl Fn(T) -> (u64, u64, Vec<FlowRecord>) + Sync,
    sink: &mut S,
) -> Result<SpillStats> {
    let dir = dir.as_ref();
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(Error::io(dir, e)),
        _ => std::fs::create_dir_all(dir).map_err(|e| Error::io(dir, e))?,
    }
    let mut live = DigestSink::new();
    let mut metas = Vec::with_capacity(tasks.len());
    obs::par::ordered(
        tasks,
        threads,
        |_, task| {
            let (stream, day, records) = produce(task);
            let path = dir.join(part_file_name(stream, day, 0));
            let meta = write_part(path, stream, day, 0, &records);
            (records, meta)
        },
        |_, (records, meta)| {
            live.accept_batch(&records);
            metas.push(meta);
        },
    );
    let metas = metas.into_iter().collect::<Result<Vec<_>>>()?;
    let mut replayed = DigestSink::new();
    let stats = PartSet::from_metas(metas).replay_into(&mut (sink, &mut replayed))?;
    if replayed.digest() != live.digest() {
        return Err(Error::Diverged {
            live: live.digest(),
            replayed: replayed.digest(),
            rows: stats.rows,
        });
    }
    Ok(SpillStats {
        parts: stats.parts,
        rows: stats.rows,
        digest: live.digest(),
    })
}

/// Spills a record stream into day-parts under a directory.
#[derive(Debug)]
pub struct SpillSink {
    dir: PathBuf,
    stream: u64,
    buf: Vec<FlowRecord>,
    cur_day: Option<u64>,
    /// Next sequence number per day — a day revisited after a seal (a
    /// producer-contract violation, but one that must not lose data) gets
    /// a fresh part file instead of overwriting the earlier one.
    next_seq: std::collections::BTreeMap<u64, u32>,
    sealed: Vec<PartMeta>,
    error: Option<Error>,
}

impl SpillSink {
    /// Create a spill sink writing parts for `stream` under `dir`
    /// (created if missing).
    pub fn new(dir: impl Into<PathBuf>, stream: u64) -> Result<SpillSink> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| Error::io(&dir, e))?;
        Ok(SpillSink {
            dir,
            stream,
            buf: Vec::new(),
            cur_day: None,
            next_seq: std::collections::BTreeMap::new(),
            sealed: Vec::new(),
            error: None,
        })
    }

    fn seal(&mut self) {
        let Some(day) = self.cur_day else {
            return;
        };
        if self.error.is_some() {
            self.buf.clear();
            return;
        }
        let seq_slot = self.next_seq.entry(day).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        let path = self.dir.join(part_file_name(self.stream, day, seq));
        match write_part(&path, self.stream, day, seq, &self.buf) {
            Ok(meta) => self.sealed.push(meta),
            Err(e) => self.error = Some(e),
        }
        self.buf.clear();
    }

    /// Seal the in-flight day (if any) and return every part written, or
    /// the first error the sink hit.
    pub fn finish(mut self) -> Result<Vec<PartMeta>> {
        self.seal();
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(std::mem::take(&mut self.sealed)),
        }
    }
}

impl FlowSink for SpillSink {
    fn accept(&mut self, record: &FlowRecord) {
        let day = day_of(record.start);
        match self.cur_day {
            Some(d) if d == day => {}
            Some(_) => {
                self.seal();
                self.cur_day = Some(day);
            }
            None => self.cur_day = Some(day),
        }
        self.buf.push(*record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PartSet;
    use flowmon::{CollectSink, FlowKey, Scope, DAY};

    fn rec(day: u64, i: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey::udp(
                "10.9.9.9".parse().unwrap(),
                (1000 + i % 100) as u16,
                "2001:db8::77".parse().unwrap(),
                53,
            ),
            start: day * DAY + i * 11,
            end: day * DAY + i * 11 + 3,
            bytes_orig: i,
            bytes_reply: 2 * i,
            packets_orig: 1,
            packets_reply: 1,
            scope: Scope::External,
        }
    }

    #[test]
    fn seals_one_part_per_day_and_replays_exactly() {
        let dir = std::env::temp_dir().join("flowstore-spill-test");
        std::fs::remove_dir_all(&dir).ok();
        let mut records = Vec::new();
        for day in 0..3u64 {
            for i in 0..50 {
                records.push(rec(day, i));
            }
        }
        let mut sink = SpillSink::new(&dir, 0).unwrap();
        sink.accept_batch(&records);
        let parts = sink.finish().unwrap();
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.rows == 50));

        let mut collect = CollectSink::new();
        PartSet::from_metas(parts)
            .replay_into(&mut collect)
            .unwrap();
        assert_eq!(collect.into_records(), records);
        std::fs::remove_dir_all(&dir).ok();
    }
}
