//! `repro bench-snapshot` — times the [`ipv6view_bench::probes`] catalogue
//! (the closures the criterion target times) and appends one snapshot to
//! each ledger that [`probes::LEDGERS`] names. One timer and sampling
//! policy ([`median_ns`]), one [`Snapshot`] schema, one shape check.
//!
//! The ledgers are history: the tool never rewrites existing bytes. The
//! snapshot is spliced in as the last element of the `"snapshots"` array,
//! and the edited text must pass the shape check before the file is
//! replaced. `--check` runs the shape check alone and writes nothing. Older
//! entries were converted to this one format once, with every value
//! unchanged (CHANGES.md records the conversion). The end-to-end anchor
//! rows are `e2ebench`'s job and deliberately not duplicated here.

use ipv6view_bench::probes::{self, Probe};
use serde::Serialize;
use serde_json::Value;
use std::path::Path;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The sampling policy, the same for every probe: warm up for
/// `WARMUP_MS`, size each sample to about `SAMPLE_MS` of iterations, and
/// report the median per-iteration time over `SAMPLES` samples, to one
/// decimal of a nanosecond as the criterion shim prints it.
const WARMUP_MS: u64 = 300;
const SAMPLE_MS: u64 = 50;
const SAMPLES: usize = 15;

/// One appended ledger entry.
#[derive(Serialize)]
struct Snapshot {
    date: String,
    source: &'static str,
    methodology: String,
    host: Host,
    results: Vec<Row>,
}

/// The machine a snapshot was taken on, so numbers from different hosts
/// are never compared blindly.
#[derive(Serialize)]
struct Host {
    cpus: Option<usize>,
}

/// One probe's measurement.
#[derive(Serialize)]
struct Row {
    name: &'static str,
    layer: &'static str,
    median_ns: f64,
    samples: usize,
}

/// Entry point for the `bench-snapshot` subcommand, on the ledgers in
/// `dir`. Returns the line to print on success. `check` validates the
/// ledger shapes without running probes or writing.
pub fn run(dir: &Path, check: bool) -> Result<String, String> {
    // Every ledger is read and checked before any probe runs, so a bad
    // ledger fails fast and no file is written unless all of them can be.
    let mut ledgers = Vec::new();
    for (name, group) in probes::LEDGERS {
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let count = check_shape(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        ledgers.push((path, text, count, group));
    }
    if check {
        return Ok("bench-snapshot --check: every ledger well-formed".into());
    }
    let now = SystemTime::now().duration_since(UNIX_EPOCH);
    let date = civil_date(now.map_or(0, |d| d.as_secs()));
    let mut edits = Vec::new();
    for (path, text, count, group) in ledgers {
        obs::info!("[bench-snapshot] timing the {} probes ...", path.display());
        let probes = group().map_err(|e| format!("{}: {e}", path.display()))?;
        let snapshot = measure(&date, probes)?;
        let edited =
            append(&text, count, &snapshot).map_err(|e| format!("{}: {e}", path.display()))?;
        edits.push((path, edited));
    }
    for (path, edited) in &edits {
        std::fs::write(path, edited)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(format!("appended snapshot ({date}) to every ledger"))
}

/// Time every probe of one group into a snapshot.
fn measure(date: &str, probes: Vec<Probe>) -> Result<Snapshot, String> {
    let results = probes
        .into_iter()
        .map(|mut p| {
            let median_ns = median_ns(&mut p.run).map_err(|e| format!("probe {}: {e}", p.name))?;
            Ok(Row {
                name: p.name,
                layer: p.layer,
                median_ns,
                samples: SAMPLES,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Snapshot {
        date: date.to_string(),
        source: "repro bench-snapshot",
        methodology: format!(
            "{WARMUP_MS} ms warmup, then {SAMPLES} samples of ~{SAMPLE_MS} ms \
             (iterations per sample calibrated from the warmup); \
             median per-iteration ns over samples"
        ),
        host: Host {
            cpus: std::thread::available_parallelism().ok().map(|n| n.get()),
        },
        results,
    })
}

/// Median per-iteration wall-clock of `run`, measured criterion-style:
/// run it for [`WARMUP_MS`] first (discarded, so caches and branch
/// predictors are warm), calibrate how many iterations fill [`SAMPLE_MS`]
/// (so timer overhead amortises on fast probes), then time [`SAMPLES`]
/// batches of that size. The first failing call ends the measurement.
fn median_ns<E>(run: &mut dyn FnMut() -> Result<(), E>) -> Result<f64, E> {
    let warmup = Duration::from_millis(WARMUP_MS);
    let t0 = Instant::now();
    let mut warm_iters = 0u64;
    while t0.elapsed() < warmup {
        run()?;
        warm_iters += 1;
    }
    let per_iter = (t0.elapsed().as_nanos() as u64 / warm_iters.max(1)).max(1);
    let iters = (SAMPLE_MS * 1_000_000 / per_iter).clamp(1, 1_000_000);
    let mut times = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        for _ in 0..iters {
            run()?;
        }
        times.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    times.sort_unstable_by(f64::total_cmp);
    Ok(one_decimal(times[times.len() / 2]))
}

/// `ns` rounded to one decimal: near the timer floor (rows of 10–20 ns)
/// whole nanoseconds would lose up to a tenth of the value.
fn one_decimal(ns: f64) -> f64 {
    (ns * 10.0).round() / 10.0
}

// ---------------------------------------------------------------------------
// Ledger append (existing bytes preserved) and shape check
// ---------------------------------------------------------------------------

/// `text` (a ledger holding `count` snapshots) with `snapshot` spliced in,
/// validated the way `--check` would.
fn append(text: &str, count: usize, snapshot: &Snapshot) -> Result<String, String> {
    let json = serde_json::to_string_pretty(snapshot).map_err(|e| format!("{e:?}"))?;
    // Indent the snapshot's inner lines to its place in the array.
    let edited =
        splice_snapshot(text, &json.replace('\n', "\n    ")).ok_or("no array to splice into")?;
    if check_shape(&edited)? != count + 1 {
        return Err("\"snapshots\" is not the last key; file left untouched".into());
    }
    Ok(edited)
}

/// The pure splice: `snapshot` becomes the last element of the document's
/// last array, which is `"snapshots"` in every ledger (the caller checks
/// that the snapshot count grew). Every byte before the array's closing
/// bracket is kept.
fn splice_snapshot(text: &str, snapshot: &str) -> Option<String> {
    let close = text.rfind(']')?;
    let body = text[..close].trim_end();
    let sep = if body.ends_with('[') { "" } else { "," };
    Some(format!("{body}{sep}\n    {snapshot}\n  {}", &text[close..]))
}

/// Parse a ledger and check its one shape; returns the snapshot count. A
/// ledger is an object holding a `"snapshots"` array and at most a
/// `"description"` besides. Every snapshot carries a string `date` and a
/// `results` array, and every row a string `name`, a string `layer` and a
/// numeric `median_ns`. Other snapshot and row keys are free-form notes.
fn check_shape(text: &str) -> Result<usize, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let top = v.as_object().ok_or("not a JSON object")?;
    if let Some((key, _)) = top
        .iter()
        .find(|(k, _)| !matches!(k.as_str(), "description" | "snapshots"))
    {
        return Err(format!("unexpected top-level key {key:?}"));
    }
    let snaps = v
        .get("snapshots")
        .and_then(Value::as_array)
        .ok_or("missing \"snapshots\" array")?;
    for (i, snap) in snaps.iter().enumerate() {
        if snap.get("date").and_then(Value::as_str).is_none() {
            return Err(format!("snapshots[{i}] missing string date"));
        }
        let rows = snap
            .get("results")
            .and_then(Value::as_array)
            .ok_or(format!("snapshots[{i}] missing results array"))?;
        for (j, row) in rows.iter().enumerate() {
            if row.get("name").and_then(Value::as_str).is_none()
                || row.get("layer").and_then(Value::as_str).is_none()
                || row.get("median_ns").and_then(Value::as_f64).is_none()
            {
                return Err(format!(
                    "snapshots[{i}].results[{j}] needs string name + layer, numeric median_ns"
                ));
            }
        }
    }
    Ok(snaps.len())
}

// ---------------------------------------------------------------------------
// Timestamp (no chrono in the tree: hand-rolled civil-date conversion)
// ---------------------------------------------------------------------------

/// Unix seconds to `YYYY-MM-DD` via the classic days-to-civil conversion
/// (Howard Hinnant's algorithm).
fn civil_date(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> Snapshot {
        Snapshot {
            date: "2026-08-08".into(),
            source: "test",
            methodology: "fixed".into(),
            host: Host { cpus: Some(2) },
            results: vec![Row {
                name: "row",
                layer: "layer",
                median_ns: 11.3,
                samples: SAMPLES,
            }],
        }
    }

    #[test]
    fn splice_into_existing_snapshots_array() {
        let doc = "{\n  \"description\": \"x [not a real bracket]\",\n  \"snapshots\": [\n    {\n      \"pr\": 1\n    }\n  ]\n}\n";
        let out = splice_snapshot(doc, "{ \"date\": \"2026-08-08\" }").expect("spliced");
        let v: Value = serde_json::from_str(&out).expect("still valid JSON");
        let snaps = v.get("snapshots").unwrap().as_array().unwrap();
        assert_eq!(snaps.len(), 2);
        assert_eq!(
            snaps[1].get("date").and_then(|d| d.as_str()),
            Some("2026-08-08")
        );
        assert!(
            out.contains("\"description\": \"x [not a real bracket]\""),
            "existing bytes preserved"
        );
        // A bracket after the snapshots array (here inside a later string)
        // is refused, not spliced into.
        let doc = "{ \"snapshots\": [], \"description\": \"a ] in a string\" }";
        assert!(append(doc, 0, &snapshot()).is_err());
    }

    #[test]
    fn real_ledgers_accept_the_rendered_snapshots() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (name, _) in probes::LEDGERS {
            let text = std::fs::read_to_string(root.join(name)).expect("committed ledger");
            let count = check_shape(&text).expect("committed ledger is well-formed");
            let edited = append(&text, count, &snapshot()).expect("splice passes the shape check");
            let close = text.rfind(']').expect("snapshots array");
            assert!(
                edited.starts_with(text[..close].trim_end()),
                "{name}: bytes before the splice point are unchanged"
            );
            let v: Value = serde_json::from_str(&edited).unwrap();
            let snaps = v.get("snapshots").and_then(Value::as_array).unwrap();
            let last = &snaps[count];
            assert_eq!(last.get("date").and_then(Value::as_str), Some("2026-08-08"));
            let cpus = last.get("host").and_then(|h| h.get("cpus"));
            assert_eq!(cpus.and_then(Value::as_u64), Some(2));
            let row = &last.get("results").and_then(Value::as_array).unwrap()[0];
            assert_eq!(row.get("layer").and_then(Value::as_str), Some("layer"));
            assert_eq!(row.get("median_ns").and_then(Value::as_f64), Some(11.3));
        }
    }

    #[test]
    fn shape_checks_match_the_ledger_formats() {
        let current = serde_json::to_string(&snapshot()).unwrap();
        assert_eq!(
            check_shape(&format!("{{ \"snapshots\": [ {current} ] }}")),
            Ok(1)
        );
        // Free-form notes beside the required keys are kept history.
        let noted = "{ \"description\": \"x\", \"snapshots\": [ { \"date\": \"d\", \"pr\": 1, \
                     \"results\": [ { \"name\": \"a\", \"layer\": \"l\", \"median_ns\": 1.5, \
                     \"min_ns\": 1 } ] } ] }";
        assert_eq!(check_shape(noted), Ok(1));

        for bad in [
            // Flat `*_ns` snapshots, the format before rows had names.
            "{ \"snapshots\": [ { \"pr\": 1, \"lpm6_x_ns\": 5 } ] }",
            // Rows at the top level rather than in a dated snapshot.
            "{ \"results\": [ { \"name\": \"a\", \"layer\": \"l\", \"median_ns\": 1 } ], \
             \"snapshots\": [ { \"date\": \"d\", \"results\": [] } ] }",
            "{ \"snapshots\": [ { \"pr\": 1 } ] }",
            "{ \"results\": [] }",
            "[]",
            "{ \"snapshots\": [ { \"results\": [] } ] }",
            "{ \"snapshots\": [ { \"date\": \"d\" } ] }",
            "{ \"snapshots\": [ { \"date\": \"d\", \"results\": [ { \"median_ns\": 1 } ] } ] }",
            "{ \"snapshots\": [ { \"date\": \"d\", \"results\": [ { \"name\": \"a\", \"median_ns\": 1 } ] } ] }",
            "{ \"snapshots\": [ { \"date\": \"d\", \"results\": [ { \"name\": \"a\", \"layer\": \"l\" } ] } ] }",
        ] {
            assert!(check_shape(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_missing_ledger_is_an_error_not_an_exit() {
        let dir = std::env::temp_dir().join(format!(
            "bench-snapshot-no-ledgers-here-{}",
            std::process::id()
        ));
        for check in [true, false] {
            let err = run(&dir, check).expect_err("no ledgers to read");
            assert!(err.contains("BENCH_lpm.json"), "{err}");
        }
    }

    #[test]
    fn fractional_per_iteration_times_keep_one_decimal() {
        // 11 340 ns over 1 000 iterations: whole nanoseconds would store 11.
        assert_eq!(one_decimal(11_340.0 / 1_000.0), 11.3);
        assert_eq!(one_decimal(13_960.0 / 1_000.0), 14.0);
        let mut calls = 0u64;
        let ns = median_ns(&mut || -> Result<(), ()> {
            calls += 1;
            std::hint::black_box(calls);
            Ok(())
        })
        .unwrap();
        assert!(ns > 0.0, "a timed call took {ns} ns");
        assert_eq!(ns, one_decimal(ns), "the median is stored to one decimal");
    }

    #[test]
    fn civil_date_conversion_is_correct() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(951_782_400), "2000-02-29");
        assert_eq!(civil_date(1_786_147_200), "2026-08-08");
    }
}
