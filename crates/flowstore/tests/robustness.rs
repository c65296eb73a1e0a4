//! Damaged or misused spills are errors, never reports: a truncated part, a
//! flipped byte, a deleted part, a task list out of canonical order, two
//! tasks with one identity and an unusable directory each make
//! `spill_through` (and, for damaged files, `PartSet::replay_into`) return
//! an `Err`. So does a failing writer: `write_part` to a device that
//! refuses the bytes is an I/O error, and a part path a directory occupies
//! fails its task, with `spill_through` returning the first such failure in
//! task order before any row reaches the sink. A replay decoded on several
//! workers delivers the same batches as one on a single thread, and stops
//! at the first damaged part in part order with only the rows before it
//! in the sink.

use flowmon::{CollectSink, FlowKey, FlowRecord, FlowSink, Scope, DAY};
use flowstore::{
    part_file_name, records_digest, spill_through, write_part, Error, PartSet, SpillStats,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn rec(day: u64, stream: u64, i: u64) -> FlowRecord {
    FlowRecord {
        key: FlowKey::tcp(
            std::net::Ipv4Addr::from(0x0a00_0000 + (stream as u32) * 256 + i as u32).into(),
            40_000 + i as u16,
            "2001:db8::443".parse().unwrap(),
            443,
        ),
        start: day * DAY + stream * 1_000 + i * 7,
        end: day * DAY + stream * 1_000 + i * 7 + 5,
        bytes_orig: 100 + i,
        bytes_reply: 3_000 * i,
        packets_orig: 1 + i % 3,
        packets_reply: 2 + i % 5,
        scope: Scope::External,
    }
}

fn records(day: u64, stream: u64) -> Vec<FlowRecord> {
    (0..64).map(|i| rec(day, stream, i)).collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flowstore-robust-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Spill days 0..3 of stream 0 on one thread (tasks run in order). The last
/// task's producer first applies `tamper` to day 0's part, which is written
/// by then and replays after it.
fn spill_tampered(tag: &str, tamper: impl Fn(&Path) + Sync) -> Result<SpillStats, Error> {
    let dir = fresh_dir(tag);
    let mut sink = CollectSink::new();
    let result = spill_through(
        &dir,
        vec![0u64, 1, 2],
        1,
        |day| {
            if day == 2 {
                tamper(&dir.join(part_file_name(0, 0, 0)));
            }
            (0, day, records(day, 0))
        },
        &mut sink,
    );
    std::fs::remove_dir_all(&dir).ok();
    result
}

/// The same damage applied between `write_part` and `PartSet::replay_into`.
fn replay_tampered(tag: &str, tamper: impl Fn(&Path)) -> Result<Vec<FlowRecord>, Error> {
    let dir = fresh_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let metas: Vec<_> = (0..3)
        .map(|day| {
            write_part(
                dir.join(part_file_name(0, day, 0)),
                0,
                day,
                0,
                &records(day, 0),
            )
        })
        .collect::<Result<_, _>>()
        .unwrap();
    tamper(&metas[0].path);
    let mut sink = CollectSink::new();
    let result = PartSet::from_metas(metas).replay_into(&mut sink);
    std::fs::remove_dir_all(&dir).ok();
    result.map(|_| sink.into_records())
}

fn truncate(path: &Path) {
    let bytes = std::fs::read(path).unwrap();
    std::fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
}

/// Flip one bit in the first byte of the column region (right after the
/// 8-byte magic), which the part's content digest covers.
fn flip(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[8] ^= 0x10;
    std::fs::write(path, bytes).unwrap();
}

fn delete(path: &Path) {
    std::fs::remove_file(path).unwrap();
}

#[test]
fn an_untampered_spill_replays_the_stream() {
    let expect: Vec<_> = (0..3).flat_map(|day| records(day, 0)).collect();
    let stats = spill_tampered("clean", |_| {}).expect("clean spill");
    assert_eq!(stats.parts, 3);
    assert_eq!(stats.rows, expect.len() as u64);
    assert_eq!(stats.digest, records_digest(&expect));
    assert_eq!(
        replay_tampered("clean", |_| {}).expect("clean replay"),
        expect
    );
}

#[test]
fn a_truncated_part_is_an_error() {
    assert!(matches!(
        spill_tampered("truncate", truncate),
        Err(Error::Corrupt(_))
    ));
    assert!(matches!(
        replay_tampered("truncate", truncate),
        Err(Error::Corrupt(_))
    ));
}

#[test]
fn a_flipped_byte_is_an_error() {
    assert!(matches!(
        spill_tampered("flip", flip),
        Err(Error::Corrupt(_))
    ));
    assert!(matches!(
        replay_tampered("flip", flip),
        Err(Error::Corrupt(_))
    ));
}

/// No single-bit flip anywhere in a part makes replay deliver other rows:
/// it is an error, or (in bytes no decoder reads, such as the zone maps)
/// the exact original rows.
#[test]
fn no_flipped_bit_anywhere_yields_wrong_rows() {
    let expect = records(0, 0);
    let dir = fresh_dir("sweep");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(part_file_name(0, 0, 0));
    let meta = write_part(&path, 0, 0, 0, &expect).unwrap();
    let clean = std::fs::read(&path).unwrap();
    let set = PartSet::from_metas(vec![meta]);
    for at in 0..clean.len() {
        for bit in [0x01u8, 0x80] {
            let mut bytes = clean.clone();
            bytes[at] ^= bit;
            std::fs::write(&path, bytes).unwrap();
            let mut sink = CollectSink::new();
            if set.replay_into(&mut sink).is_ok() {
                assert_eq!(sink.records, expect, "flip {bit:#x} at byte {at}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_part_deleted_before_replay_is_an_error() {
    assert!(matches!(
        spill_tampered("delete", delete),
        Err(Error::Io { .. })
    ));
    assert!(matches!(
        replay_tampered("delete", delete),
        Err(Error::Io { .. })
    ));
}

#[test]
fn tasks_out_of_canonical_order_diverge() {
    // Day 1 before day 0: the live stream is not the day-major replay.
    let dir = fresh_dir("order");
    let mut sink = CollectSink::new();
    let result = spill_through(
        &dir,
        vec![1u64, 0],
        2,
        |day| (0, day, records(day, 0)),
        &mut sink,
    );
    assert!(matches!(result, Err(Error::Diverged { rows: 128, .. })));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_tasks_with_one_identity_diverge() {
    // Both tasks write part (stream 0, day 0); on one thread the second
    // overwrites the first, so the replay reads the second part twice.
    let dir = fresh_dir("identity");
    let mut sink = CollectSink::new();
    let result = spill_through(
        &dir,
        vec![0u64, 1],
        1,
        |stream| (0, 0, records(0, stream)),
        &mut sink,
    );
    assert!(matches!(result, Err(Error::Diverged { .. })));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_dir_under_a_regular_file_is_an_io_error() {
    let file = fresh_dir("file");
    std::fs::write(&file, b"not a directory").unwrap();
    let mut sink = CollectSink::new();
    let result = spill_through(
        file.join("parts"),
        vec![0u64],
        1,
        |day| (0, day, records(day, 0)),
        &mut sink,
    );
    assert!(matches!(result, Err(Error::Io { .. })));
    assert!(sink.records.is_empty(), "no rows reach the sink");
    std::fs::remove_file(&file).ok();
}

/// `/dev/full` opens for writing and refuses every byte with `ENOSPC`.
#[cfg(target_os = "linux")]
#[test]
fn a_write_the_device_refuses_is_an_io_error() {
    let result = write_part("/dev/full", 0, 0, 0, &records(0, 0));
    assert!(matches!(
        result,
        Err(Error::Io { ref path, .. }) if path == Path::new("/dev/full")
    ));
}

#[test]
fn a_part_path_occupied_by_a_directory_fails_its_task_in_task_order() {
    // Tasks 1 and 2 each find their part path taken by a directory; on two
    // workers either may fail first, but the error is task 1's.
    let dir = fresh_dir("occupied");
    let part = |day: u64| dir.join(part_file_name(0, day, 0));
    let mut sink = CollectSink::new();
    let result = spill_through(
        &dir,
        vec![0u64, 1, 2],
        2,
        |day| {
            if day > 0 {
                std::fs::create_dir(part(day)).unwrap();
            }
            (0, day, records(day, 0))
        },
        &mut sink,
    );
    assert!(
        matches!(result, Err(Error::Io { ref path, .. }) if *path == part(1)),
        "{result:?}"
    );
    assert!(sink.records.is_empty(), "no rows reach the sink");
    std::fs::remove_dir_all(&dir).ok();
}

/// Block until the part at `path` is on disk and whole.
fn wait_for_part(path: &Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while flowstore::read_part(path).is_err() {
        assert!(
            Instant::now() < deadline,
            "{} never appeared",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_parallel_replay_stops_at_the_first_damaged_part() {
    // Day 4's producer truncates day 2's part and deletes day 3's once
    // both are written. Replay on three workers returns day 2's error,
    // and only days 0 and 1 reach the sink.
    let dir = fresh_dir("parallel-damage");
    let part = |day: u64| dir.join(part_file_name(0, day, 0));
    let mut sink = CollectSink::new();
    let result = spill_through(
        &dir,
        (0..5).collect(),
        3,
        |day| {
            if day == 4 {
                wait_for_part(&part(2));
                wait_for_part(&part(3));
                truncate(&part(2));
                delete(&part(3));
            }
            (0, day, records(day, 0))
        },
        &mut sink,
    );
    assert!(matches!(result, Err(Error::Corrupt(_))), "{result:?}");
    let expect: Vec<_> = (0..2).flat_map(|day| records(day, 0)).collect();
    assert_eq!(sink.records, expect);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every batch a sink is handed, as delivered.
#[derive(Default)]
struct Batches(Vec<Vec<FlowRecord>>);

impl FlowSink for Batches {
    fn accept(&mut self, record: &FlowRecord) {
        self.0.push(vec![*record]);
    }

    fn accept_batch(&mut self, records: &[FlowRecord]) {
        self.0.push(records.to_vec());
    }
}

#[test]
fn replayed_batches_are_identical_at_one_and_three_threads() {
    // Twelve parts of uneven size, one of them empty.
    let tasks: Vec<(u64, u64)> = (0..3)
        .flat_map(|day| (0..4).map(move |stream| (day, stream)))
        .collect();
    let rows = |day: u64, stream: u64| {
        let mut part = records(day, stream);
        part.truncate(((day * 4 + stream) * 11 % 64) as usize);
        part
    };
    let replay_at = |threads: usize| {
        let dir = fresh_dir(&format!("batches-t{threads}"));
        let mut batches = Batches::default();
        let stats = spill_through(
            &dir,
            tasks.clone(),
            threads,
            |(day, stream)| (stream, day, rows(day, stream)),
            &mut batches,
        )
        .expect("clean spill");
        std::fs::remove_dir_all(&dir).ok();
        (stats, batches.0)
    };
    let one = replay_at(1);
    let expect: Vec<_> = tasks
        .iter()
        .map(|&(day, stream)| rows(day, stream))
        .collect();
    assert_eq!(one.1, expect);
    assert_eq!(replay_at(3), one);
}
