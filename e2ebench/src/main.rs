//! `e2ebench` — the repository's end-to-end benchmark.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <paper-all|asfrac-100k|millsubs-spill|all> \
//!     --seed N --seconds S --trace 0|1 [--out results.jsonl]
//! ... -- pin [--workload W]    # print the reference digests (e2ebench/pins.txt)
//! ... -- compare BASE NEW      # compare two --out files (same host only)
//! ```
//!
//! Each workload is a closed loop with one client: iterations run one
//! after another, each in a fresh child process (so peak RSS is per
//! iteration), until `--seconds` is spent. The end-to-end metrics are
//! medians over those iterations. Every scenario Report is checked against
//! the SHA-256 pinned for the workload and seed in `pins.txt`; a run that
//! differs or panics counts as failed, and any failure makes the exit code
//! non-zero. `--trace 1` adds one traced iteration, which rebuilds the
//! work from public layer calls under the benchmark's own spans and
//! reports per-layer metrics instead of end-to-end ones.
//!
//! `--seed N` picks world seed `0x1f6ad0b + N % 10`: seed 0 is the `repro`
//! default, and every seed has pins. The last stdout line is one JSON
//! object: `{"attempted", "correct", "failed", "metrics"}`.

mod host;
mod json;
mod sha256;
mod trace;
mod workload;

use json::{f64_at, num, obj, string};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use workload::Workload;

/// Reference digests, one line per (workload, seed index, scenario).
const PINS: &str = include_str!("../pins.txt");
/// How many world seeds have pins; `--seed` is taken modulo this.
const SEED_COUNT: u64 = 10;
/// The `repro` default world seed, used for `--seed 0`.
const DEFAULT_WORLD_SEED: u64 = 0x1f6_ad0b;
/// Scratch space in the working directory: spill parts and trace files.
const SCRATCH: &str = ".e2ebench";
/// Set-up is timed at least this many times per run.
const MIN_SETUP_SAMPLES: usize = 5;
/// Traced runs must name the layer of at least this share of wall time.
const MIN_COVERAGE: f64 = 0.9;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]),
        Some("pin") => pin(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => bench(&args),
    };
    std::process::exit(code);
}

/// The value after `name` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn world_seed(seed: u64) -> (u64, u64) {
    let index = seed % SEED_COUNT;
    (index, DEFAULT_WORLD_SEED + index)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Child process entry: run one iteration, set-up or traced run and print
/// its result as one JSON line.
fn child(args: &[String]) -> i32 {
    let (Some(mode), Some(workload), Some(seed), Some(spill)) = (
        flag(args, "--mode"),
        flag(args, "--workload").and_then(Workload::parse),
        flag(args, "--world-seed").and_then(|s| s.parse().ok()),
        flag(args, "--spill"),
    ) else {
        eprintln!("child: bad arguments");
        return 2;
    };
    let spill = Path::new(spill);
    let out = match mode {
        "iter" => workload::iteration(workload, seed, spill),
        "setup" => workload::setup_only(workload, seed, spill),
        "traced" => workload::traced(workload, seed, spill),
        _ => return 2,
    };
    println!("{}", json::to_string(&out));
    0
}

/// Run one child and parse its result; `None` when it failed or printed
/// nothing parseable. The spill directory is removed once it exits.
fn spawn(mode: &str, workload: Workload, world_seed: u64, spill: &Path) -> Option<Value> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["child", "--mode", mode, "--workload", workload.name()])
        .args(["--world-seed", &world_seed.to_string()])
        .arg("--spill")
        .arg(spill)
        .env("REPRO_LOG", "warn")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    if spill.exists() {
        let _ = std::fs::remove_dir_all(spill);
    }
    let output = output.ok().filter(|o| o.status.success())?;
    let stdout = String::from_utf8(output.stdout).ok()?;
    serde_json::from_str(stdout.lines().last()?).ok()
}

/// One pinned scenario: its Report digest and its datasets' digests.
struct Pin {
    scenario: String,
    sha: String,
    datasets: BTreeMap<String, String>,
}

fn pins_for(workload: Workload, index: u64) -> Vec<Pin> {
    PINS.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (w, i) = (f.next()?, f.next()?.parse::<u64>().ok()?);
            if w != workload.name() || i != index {
                return None;
            }
            Some(Pin {
                scenario: f.next()?.to_string(),
                sha: f.next()?.to_string(),
                datasets: f
                    .filter_map(|d| d.split_once('='))
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            })
        })
        .collect()
}

/// Failures against attempts, with a note for each failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    /// Check a child's Report digests against the pins, in order.
    fn reports(&mut self, result: &Value, pins: &[Pin]) {
        let got = result.get("reports").and_then(Value::as_array);
        for (i, pin) in pins.iter().enumerate() {
            self.attempted += 1;
            let entry = got.and_then(|g| g.get(i));
            let name = entry.and_then(|e| e.get("name")).and_then(Value::as_str);
            let sha = entry.and_then(|e| e.get("sha")).and_then(Value::as_str);
            if name != Some(pin.scenario.as_str()) {
                self.fail(format!("{}: scenario missing", pin.scenario));
            } else if sha.is_none() {
                self.fail(format!("{}: panicked", pin.scenario));
            } else if sha != Some(pin.sha.as_str()) {
                self.fail(format!(
                    "{}: report digest differs from its pin",
                    pin.scenario
                ));
            }
        }
    }

    /// Check datasets rebuilt from layer calls against the pinned ones.
    fn datasets(&mut self, result: &Value, pins: &[Pin]) {
        for d in result
            .get("datasets")
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
        {
            self.attempted += 1;
            let field = |k| d.get(k).and_then(Value::as_str).unwrap_or("");
            let pinned = pins
                .iter()
                .find(|p| p.scenario == field("scenario"))
                .and_then(|p| p.datasets.get(field("dataset")));
            if pinned.map(String::as_str) != Some(field("sha")) {
                self.fail(format!(
                    "{} {}: rebuilt dataset differs from its pin",
                    field("scenario"),
                    field("dataset")
                ));
            }
        }
    }

    /// A child that crashed counts every check it owed as failed.
    fn crashed(&mut self, owed: usize, what: &str) {
        self.attempted += owed.max(1) as u64;
        self.failed += owed.max(1) as u64;
        self.notes.push(format!("{what} child process failed"));
    }
}

/// Unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_per_s") {
        "1/s"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_share") || name.ends_with("_util") {
        "share"
    } else if name.ends_with("_mb") {
        "MB"
    } else if name.ends_with("_ratio") {
        "ratio"
    } else if name.ends_with("bytes_per_row") {
        "B/row"
    } else {
        "count"
    }
}

fn metric(value: f64, unit: &str) -> Value {
    obj([("value", num(value)), ("unit", string(unit))])
}

fn bench(args: &[String]) -> i32 {
    let workloads: Vec<Workload> = match flag(args, "--workload") {
        Some("all") => Workload::ALL.to_vec(),
        Some(name) => Workload::parse(name).into_iter().collect(),
        None => vec![],
    };
    let seed = flag(args, "--seed").map_or(Some(0), |s| s.parse::<u64>().ok());
    let seconds = flag(args, "--seconds").map_or(Some(30.0), |s| s.parse::<f64>().ok());
    let trace = flag(args, "--trace").unwrap_or("0");
    let (Some(seed), Some(seconds), false, true) = (
        seed,
        seconds,
        workloads.is_empty(),
        trace == "0" || trace == "1",
    ) else {
        eprintln!(
            "usage: e2ebench --workload <paper-all|asfrac-100k|millsubs-spill|all> \
             --seed N --seconds S --trace 0|1 [--out FILE]\n       \
             e2ebench pin [--workload W]\n       e2ebench compare BASE NEW"
        );
        return 2;
    };
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let stamp = host::stamp(&root);
    println!("stamp {}", json::to_string(&stamp));
    let mut code = 0;
    for workload in workloads {
        let (ok, record) = run(workload, seed, seconds, trace == "1", &stamp);
        if let Some(path) = flag(args, "--out") {
            let line = format!("{}\n", json::to_string(&record));
            let written = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(line.as_bytes()));
            if let Err(e) = written {
                eprintln!("writing {path}: {e}");
                code = 1;
            }
        }
        if !ok {
            code = 1;
        }
    }
    code
}

/// Run one workload and print its metrics; returns whether every check
/// passed and the full result record.
fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, stamp: &Value) -> (bool, Value) {
    let (index, world_seed) = world_seed(seed);
    let pins = pins_for(workload, index);
    let scratch = Path::new(SCRATCH);
    let spill = scratch.join(format!("spill-{}", std::process::id()));
    let mut tally = Tally::default();
    if pins.is_empty() {
        tally.fail(format!(
            "no pins for {} seed index {index}",
            workload.name()
        ));
    }
    if let Err(e) = std::fs::create_dir_all(scratch) {
        tally.fail(format!("creating {SCRATCH}: {e}"));
    }
    println!(
        "workload {} seed {seed} (world seed {world_seed:#x}) for {seconds} s, trace {}",
        workload.name(),
        u8::from(trace)
    );

    // Timed iterations, one after another, until the time is spent. Where
    // set-up is cheap next to an iteration it is also timed alone after
    // each one, so its samples spread over the run: a shared host slows
    // down in bursts of seconds, and back-to-back samples share a burst.
    let (mut iterations, mut setups) = (Vec::new(), Vec::new());
    let mut more = tally.failed == 0;
    let (start, mut runs) = (Instant::now(), 0u32);
    while more {
        runs += 1;
        match spawn("iter", workload, world_seed, &spill) {
            Some(result) => {
                tally.reports(&result, &pins);
                let setup_s = f64_at(&result, "setup_s");
                setups.push(setup_s);
                if setup_s * 4.0 < f64_at(&result, "wall_s") {
                    sample_setup(workload, world_seed, &spill, &mut setups, &mut tally);
                }
                iterations.push(result);
            }
            None => tally.crashed(pins.len(), "iteration"),
        }
        // Go on while the next iteration is due to end less than half an
        // iteration past the time.
        let elapsed = start.elapsed().as_secs_f64();
        more = elapsed + elapsed / f64::from(runs) / 2.0 < seconds;
    }
    while !iterations.is_empty()
        && setups.len() < MIN_SETUP_SAMPLES
        && sample_setup(workload, world_seed, &spill, &mut setups, &mut tally)
    {}
    let samples = |key: &str| -> Vec<f64> { iterations.iter().map(|r| f64_at(r, key)).collect() };
    let walls = samples("wall_s");
    let rss = samples("peak_rss_mb");
    let disk = samples("disk_mb");
    let end_to_end = [
        ("wall_s", median(&walls), "s", walls.len()),
        ("setup_s", median(&setups), "s", setups.len()),
        ("peak_rss_mb", median(&rss), "MB", rss.len()),
        ("disk_mb", median(&disk), "MB", disk.len()),
    ];

    let mut metrics = BTreeMap::new();
    let mut spans = Value::Null;
    if trace {
        match spawn("traced", workload, world_seed, &spill) {
            Some(result) => {
                // paper-all's traced run yields Reports; the other two
                // rebuild their scenario's dataset from layer calls.
                let owed = if workload == Workload::PaperAll {
                    &pins[..]
                } else {
                    &[]
                };
                tally.reports(&result, owed);
                tally.datasets(&result, &pins);
                let layers = result.get("layers").and_then(Value::as_object);
                for (name, value) in layers.into_iter().flatten() {
                    let value = value.as_f64().unwrap_or(f64::NAN);
                    metrics.insert(name.clone(), metric(value, layer_unit(name)));
                }
                let coverage = metrics
                    .get("trace.coverage_share")
                    .map_or(0.0, |m| f64_at(m, "value"));
                tally.attempted += 1;
                if coverage < MIN_COVERAGE {
                    tally.fail(format!(
                        "named spans cover {:.1}% of the traced run, under {:.0}%",
                        coverage * 100.0,
                        MIN_COVERAGE * 100.0
                    ));
                }
                let overhead = f64_at(&result, "wall_s") / median(&walls);
                metrics.insert("trace.overhead_ratio".into(), metric(overhead, "ratio"));
                spans = result.get("spans").cloned().unwrap_or(Value::Null);
            }
            None => tally.crashed(pins.len(), "traced"),
        }
        for (name, m) in &metrics {
            println!(
                "  {name:<44} {:>16.6} {}",
                f64_at(m, "value"),
                m.get("unit").and_then(Value::as_str).unwrap_or("")
            );
        }
    } else {
        for (name, value, unit, _) in end_to_end {
            // disk_mb is printed for every workload but left out of the
            // result line: it is 0 unless the run spills.
            if name != "disk_mb" {
                metrics.insert(name.to_string(), metric(value, unit));
            }
        }
    }
    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    for (name, value, unit, n) in end_to_end {
        println!("  {name:<12} {value:>12.4} {unit:<6} median of {n}");
    }
    println!(
        "  {:<12} {failed_share:>12.4} {:<6} {} of {} checks failed",
        "failed_share", "share", tally.failed, tally.attempted
    );
    for note in &tally.notes {
        println!("  FAILED: {note}");
    }
    if trace {
        let path = Path::new(SCRATCH).join(format!("trace-{}-seed{seed}.json", workload.name()));
        let _ = std::fs::write(&path, json::to_string(&spans));
        println!("  spans written to {}", path.display());
    }
    let ok = tally.failed == 0;
    let line = obj([
        ("correct", Value::Bool(ok)),
        ("attempted", num(tally.attempted as f64)),
        ("failed", num(tally.failed as f64)),
        ("metrics", Value::Object(metrics.clone())),
    ]);
    println!("{}", json::to_string(&line));

    let list = |v: &[f64]| Value::Array(v.iter().copied().map(num).collect());
    let record = obj([
        ("stamp", stamp.clone()),
        ("workload", string(workload.name())),
        ("seed", num(seed as f64)),
        ("world_seed", num(world_seed as f64)),
        ("trace", Value::Bool(trace)),
        ("seconds", num(seconds)),
        ("attempted", num(tally.attempted as f64)),
        ("failed", num(tally.failed as f64)),
        (
            "samples",
            obj([
                ("wall_s", list(&walls)),
                ("setup_s", list(&setups)),
                ("peak_rss_mb", list(&rss)),
                ("disk_mb", list(&disk)),
            ]),
        ),
        ("metrics", Value::Object(metrics)),
    ]);
    (ok, record)
}

/// Time `Session::new` alone once; false when the child failed.
fn sample_setup(
    workload: Workload,
    world_seed: u64,
    spill: &Path,
    setups: &mut Vec<f64>,
    tally: &mut Tally,
) -> bool {
    match spawn("setup", workload, world_seed, spill) {
        Some(result) => {
            setups.push(f64_at(&result, "setup_s"));
            true
        }
        None => {
            tally.crashed(0, "set-up");
            false
        }
    }
}

/// Print the reference digests for `pins.txt`.
fn pin(args: &[String]) -> i32 {
    let only = flag(args, "--workload").and_then(Workload::parse);
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        for index in 0..SEED_COUNT {
            let (_, world_seed) = world_seed(index);
            for d in workload::reference(workload, world_seed) {
                let field = |k| d.get(k).and_then(Value::as_str).unwrap_or("-").to_string();
                let datasets: Vec<String> = d
                    .get("datasets")
                    .and_then(Value::as_object)
                    .into_iter()
                    .flatten()
                    .map(|(k, v)| format!(" {k}={}", v.as_str().unwrap_or("-")))
                    .collect();
                println!(
                    "{} {index} {} {}{}",
                    workload.name(),
                    field("name"),
                    field("sha"),
                    datasets.concat()
                );
            }
            let _ = std::io::stdout().flush();
        }
    }
    0
}

/// Read a file of result records, one JSON object per line.
fn records(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// Compare the records of NEW with the matching (workload, seed, trace)
/// records of BASE. Refuses when host, compiler or build profile differ.
fn compare(args: &[String]) -> i32 {
    let (Some(base), Some(new)) = (args.first(), args.get(1)) else {
        eprintln!("usage: e2ebench compare BASE NEW");
        return 2;
    };
    let (base, new) = match (records(base), records(new)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // Bounds and directions from BENCHMARK.json, when it is at hand.
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or(Value::Null);
    let declared: Vec<&Value> = ["end_to_end", "per_layer"]
        .iter()
        .filter_map(|k| spec.get(k).and_then(Value::as_array))
        .flatten()
        .collect();
    let key = |r: &Value| {
        ["workload", "seed", "trace"].map(|k| r.get(k).map(json::to_string).unwrap_or_default())
    };
    let mut code = 0;
    for n in &new {
        let Some(b) = base.iter().find(|b| key(b) == key(n)) else {
            continue;
        };
        for part in ["host", "rustc", "profile"] {
            let (x, y) = (
                b.get("stamp").and_then(|s| s.get(part)),
                n.get("stamp").and_then(|s| s.get(part)),
            );
            if x != y {
                eprintln!(
                    "refusing to compare: {part} differs ({} vs {})",
                    x.map(json::to_string).unwrap_or_default(),
                    y.map(json::to_string).unwrap_or_default()
                );
                return 2;
            }
        }
        println!("{}", key(n).join(" "));
        let metrics = n.get("metrics").and_then(Value::as_object);
        for (name, m) in metrics.into_iter().flatten() {
            let now = f64_at(m, "value");
            let was = b
                .get("metrics")
                .and_then(|x| x.get(name))
                .map_or(f64::NAN, |x| f64_at(x, "value"));
            let change = (now - was) / was;
            let spec = declared
                .iter()
                .find(|d| d.get("name").and_then(Value::as_str) == Some(name));
            let lower =
                spec.and_then(|d| d.get("better")).and_then(Value::as_str) != Some("higher");
            let worse = if lower { change } else { -change };
            let verdict = match spec.and_then(|d| d.get("bound")).and_then(Value::as_f64) {
                Some(bound) if worse > bound => {
                    code = 1;
                    "WORSE"
                }
                Some(_) => "ok",
                None => "",
            };
            println!(
                "  {name:<44} {was:>14.6} {now:>14.6} {:>+8.2}% {verdict}",
                change * 100.0
            );
        }
    }
    code
}
