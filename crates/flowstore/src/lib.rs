//! # flowstore — a spillable, deterministic, columnar flow store
//!
//! `CollectSink` fidelity without `CollectSink` memory: a record stream is
//! written into sorted immutable **day-parts** (one file per
//! `(stream, day, seq)`, one compressed column per [`flowmon::FlowRecord`]
//! field) and replayed **byte-identically** later. There is one way in and
//! one way out:
//!
//! * [`spill_through`] is the only code that turns a stream into parts. It
//!   runs a task-parallel producer, writes one part per task on the
//!   workers, replays the parts into any sink and proves the replay is the
//!   live stream by digest, with every failure returned as an [`Error`]
//!   value.
//! * [`write_part`] is the only encoder, and one replay loop is the only
//!   decoder: [`spill_through`] runs it on its workers, which read and
//!   decode parts while the caller feeds the sink in order, and
//!   [`PartSet::replay_into`] runs it on one thread. [`PartSet::open`]
//!   reopens a spill directory.
//!
//! ## Part layout
//!
//! ```text
//! file: part-s{stream:08}-d{day:08}-q{seq:04}.fsp
//!
//! +-------------+--------------------------+--------+------------+------+
//! | magic (8 B) | column region            | footer | footer len | tail |
//! |  FSPART1\0  | 13 compressed columns    |        |   (u32 LE) | FSP1 |
//! +-------------+--------------------------+--------+------------+------+
//! ```
//!
//! The footer records the part identity `(stream, day, seq)`, the row
//! count, per-column `{offset, len, raw_bytes, min, max}` and an FNV-1a64
//! content digest over the column region, verified on every read. Codecs:
//! delta / delta-of-delta for timestamps and ports, first-appearance
//! dictionaries (built through a hashed interner) for addresses, run-length for enum columns, varint for
//! counters (see [`part`] for the full column table).
//!
//! ## Determinism contract
//!
//! * A sealed part's bytes are a **pure function** of its identity and
//!   rows — no wall clock, no ambient RNG, no hash-order iteration.
//! * [`spill_through`] names each part by its task's `(stream, day)`, so
//!   the set of parts a run writes depends only on `(sites, seed, days)`,
//!   never on the thread layout.
//! * Replay delivers parts in canonical `(day, stream, seq)` order — the
//!   emission order of every producer — at any thread count, so replay
//!   through `flowmon::CollectSink` reproduces the in-memory
//!   `Vec<FlowRecord>` exactly. Tier-1 tests compare digests
//!   ([`records_digest`] / [`DigestSink`]) on both sides.
//!
//! ## Quick start
//!
//! ```
//! use flowmon::CollectSink;
//! use flowstore::{records_digest, spill_through};
//!
//! // Tasks in canonical `(day, stream)` order; each produces one part's rows.
//! let dir = std::env::temp_dir().join(format!("flowstore-doc-{}", std::process::id()));
//! let tasks: Vec<(u64, u64)> = vec![(0, 0), (0, 1), (1, 0)];
//! let mut collect = CollectSink::new();
//! let stats = spill_through(&dir, tasks, 2, |(day, stream)| (stream, day, Vec::new()), &mut collect)?;
//! assert_eq!((stats.parts, stats.rows), (3, 0));
//! assert_eq!(stats.digest, records_digest(&collect.into_records()));
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), flowstore::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod digest;
mod error;
pub mod part;
mod spill;
mod store;

pub use digest::{fnv1a64, records_digest, DigestSink};
pub use error::{Error, Result};
pub use part::{
    parse_part_file_name, part_bytes, part_file_name, read_part, write_part, ColumnMeta, Footer,
    PartMeta, COLUMNS, COLUMN_NAMES,
};
pub use spill::{spill_through, SpillStats};
pub use store::{PartSet, ReplayStats};
