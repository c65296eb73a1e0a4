//! Spilling a record stream into sealed day-parts: [`spill_through`] is the
//! only code that turns a stream into parts. Each task of a task-parallel
//! producer becomes one part, written by [`write_part`] on the worker that
//! produced it, and every failure is an [`Error`] value.

use crate::digest::DigestSink;
use crate::error::{Error, Result};
use crate::part::{part_file_name, write_part};
use crate::store::PartSet;
use flowmon::{FlowRecord, FlowSink};
use std::path::Path;

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
/// `(day, stream)` order, read and decoded on up to `threads` workers with
/// at most `2 × threads` decoded parts alive, and must digest the same — so
/// `tasks` must be in canonical order, one task per identity.
///
/// # Errors
///
/// The first I/O or corrupt-part error in task order (a write error
/// before any row reaches `sink`; a replay error after the rows of the
/// parts before it only), or [`Error::Diverged`] when the replay is not the
/// live stream (`sink` may have seen its rows by then).
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
    let stats = PartSet::from_metas(metas).replay_on(threads, &mut (sink, &mut replayed))?;
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
