//! `repro bench-snapshot` — standing performance probes.
//!
//! Runs two hand-timed probes (criterion lives behind `cargo bench`; this
//! path must work in a plain `cargo build` binary) and **appends** one
//! timestamped snapshot to each standing benchmark ledger:
//!
//! * `BENCH_lpm.json` — the LPM attribution hot path: 1000 lookups
//!   against a 50k-prefix table per family, and the batched entry point
//!   over a duplicate-poor 4k batch, mirroring `benches/micro.rs`.
//! * `BENCH_traffic.json` — pipeline throughput: whole-residence streaming
//!   synthesis into aggregate sinks, per-AS attribution of 200k flows
//!   over a 100k-AS long-tail RIB (mirroring `benches/traffic.rs`), and
//!   the flowstore spill/replay halves over the same 200k-record stream
//!   (`ipv6view_bench::SpillProbe`).
//!
//! The ledgers are history: existing bytes are never rewritten — the new
//! snapshot is spliced into the `"snapshots"` array (created after the
//! existing keys if absent) and the result is parse-validated before the
//! file is touched. `--check` runs the validation alone and writes nothing.

use flowmon::sink::{CollectSink, FlowStatsAgg};
use flowmon::{FlowSink, Scope, ScopeFamilyAgg};
use ipv6view_bench::SpillProbe;
use ipv6view_core::client::AsAgg;
use std::net::Ipv6Addr;
use std::time::Instant;
use trafficgen::{
    paper_residences, synthesize_long_tail_into, synthesize_residence_into, LongTailTrafficConfig,
    TrafficConfig,
};
use worldgen::{World, WorldConfig};

const LPM_LEDGER: &str = "BENCH_lpm.json";
const TRAFFIC_LEDGER: &str = "BENCH_traffic.json";

/// Entry point for the `bench-snapshot` subcommand. `check` validates the
/// ledger shapes and exits without running probes or writing.
pub fn run(check: bool) {
    if check {
        let mut ok = true;
        ok &= check_ledger(LPM_LEDGER, check_lpm_shape);
        ok &= check_ledger(TRAFFIC_LEDGER, check_traffic_shape);
        if !ok {
            std::process::exit(1);
        }
        println!("bench-snapshot --check: both ledgers well-formed"); // tidy:allow(raw-stderr): CLI-only subcommand result on stdout
        return;
    }
    let date = today_utc();
    obs::info!("[bench-snapshot] running LPM probes ...");
    let lpm = lpm_probe();
    obs::info!("[bench-snapshot] running pipeline probes ...");
    let traffic = traffic_probe();
    append_to_ledger(LPM_LEDGER, &lpm.render(&date));
    append_to_ledger(TRAFFIC_LEDGER, &traffic.render(&date));
    // tidy:allow(raw-stderr): CLI-only subcommand result on stdout
    println!("appended snapshot ({date}) to {LPM_LEDGER} and {TRAFFIC_LEDGER}");
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

/// How the probes measure, stamped into every snapshot so a ledger reader
/// can tell probe medians from criterion medians at a glance. This is the
/// criterion shape in miniature: warm the cache/branch state first, size
/// each sample to many iterations so timer overhead amortises, then take
/// the median per-iteration time across samples.
const METHODOLOGY: &str = "warmup then calibrated iters/sample (criterion-shaped); \
     median per-iteration ns over samples";

struct LpmProbe {
    lpm4_frozen_1k_ns: u64,
    lpm6_frozen_1k_ns: u64,
    frozen_batch_4k_unique_ns: u64,
    samples: usize,
}

impl LpmProbe {
    fn render(&self, date: &str) -> String {
        format!(
            "{{\n      \"date\": \"{date}\",\n      \"source\": \"repro bench-snapshot\",\n      \
             \"methodology\": \"{METHODOLOGY}\",\n      \
             \"samples\": {},\n      \
             \"lpm4_frozen_longest_match_50k_prefixes_ns\": {},\n      \
             \"lpm6_frozen_longest_match_50k_prefixes_ns\": {},\n      \
             \"lpm6_frozen_longest_match_many_4k_unique_addrs_ns\": {}\n    }}",
            self.samples,
            self.lpm4_frozen_1k_ns,
            self.lpm6_frozen_1k_ns,
            self.frozen_batch_4k_unique_ns
        )
    }
}

struct TrafficProbe {
    synth_residence_5d_ns: u64,
    per_as_agg_200k_frozen_ns: u64,
    spill_write_200k_ns: u64,
    spill_replay_200k_ns: u64,
    samples: usize,
}

impl TrafficProbe {
    fn render(&self, date: &str) -> String {
        format!(
            "{{\n      \"date\": \"{date}\",\n      \"source\": \"repro bench-snapshot\",\n      \
             \"methodology\": \"{METHODOLOGY}\",\n      \
             \"samples\": {},\n      \"results\": [\n        \
             {{ \"name\": \"synthesize_residence_5d_aggregate_sinks\", \"median_ns\": {} }},\n        \
             {{ \"name\": \"per_as_agg_200k_flows_100k_ases_frozen_multibit\", \"median_ns\": {} }},\n        \
             {{ \"name\": \"flowstore_spill_200k_flows_columnar_day_parts\", \"median_ns\": {} }},\n        \
             {{ \"name\": \"flowstore_replay_200k_flows_digest_sink\", \"median_ns\": {} }}\n      \
             ]\n    }}",
            self.samples,
            self.synth_residence_5d_ns,
            self.per_as_agg_200k_frozen_ns,
            self.spill_write_200k_ns,
            self.spill_replay_200k_ns
        )
    }
}

/// Median per-iteration wall-clock of `f`, measured criterion-style.
///
/// The old probe timed each call once with no warmup, which read ~20% high
/// against `cargo bench` (cold caches/branch predictors on the first
/// samples, and per-call timer overhead on fast probes). This harness
/// matches the criterion shape: run `f` for ~`warmup_ms` first (discarded),
/// calibrate how many iterations fill ~`sample_ms`, then time `samples`
/// batches of that size and report the median per-iteration time.
fn median_ns(samples: usize, warmup_ms: u64, sample_ms: u64, mut f: impl FnMut()) -> u64 {
    let warmup = std::time::Duration::from_millis(warmup_ms);
    let t0 = Instant::now();
    let mut warm_iters = 0u64;
    while t0.elapsed() < warmup {
        f();
        warm_iters += 1;
    }
    let per_iter = (t0.elapsed().as_nanos() as u64 / warm_iters.max(1)).max(1);
    let iters = (sample_ms * 1_000_000 / per_iter).clamp(1, 1_000_000);
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX) / iters
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The attribution hot path, mirroring `benches/micro.rs`: 50k routed-table-
/// shaped prefixes for each family, 1000 half-covered scalar lookups, and
/// the batched entry point over a duplicate-poor (unique) 4k batch.
fn lpm_probe() -> LpmProbe {
    use iputil::prefix::{Prefix4, Prefix6};
    use iputil::{Lpm4, Lpm6};
    use std::net::Ipv4Addr;
    let samples = 15;
    // IPv4: uniform-random prefixes /8..=/24 (the micro.rs shape).
    let mut rng = 1u64;
    let mut table4: Lpm4<u32> = Lpm4::new();
    for i in 0..50_000u32 {
        let bits = splitmix64(&mut rng) as u32;
        let len = 8 + (splitmix64(&mut rng) % 17) as u8;
        table4.insert(Prefix4::new(Ipv4Addr::from(bits), len), i);
    }
    let addrs4: Vec<Ipv4Addr> = (0..1_000)
        .map(|_| Ipv4Addr::from(splitmix64(&mut rng) as u32))
        .collect();
    let lpm4_frozen_1k_ns = median_ns(samples, 300, 20, || {
        let mut hits = 0usize;
        for &a in &addrs4 {
            if table4.longest_match(a).is_some() {
                hits += 1;
            }
        }
        std::hint::black_box(hits);
    });
    // IPv6: routed-table-shaped /20..=/48, addresses half covered.
    let mut rng = 2u64;
    let mut table: Lpm6<u32> = Lpm6::new();
    let mut covered: Vec<u128> = Vec::new();
    for i in 0..50_000u32 {
        let bits: u128 = ((splitmix64(&mut rng) as u32 as u128) << 96)
            | ((splitmix64(&mut rng) as u32 as u128) << 64);
        let len = 20 + (splitmix64(&mut rng) % 29) as u8;
        covered.push(bits);
        table.insert(Prefix6::new(Ipv6Addr::from(bits), len), i);
    }
    let addrs: Vec<Ipv6Addr> = (0..1_000)
        .map(|i| {
            if i % 2 == 0 {
                let base = covered[(splitmix64(&mut rng) as usize) % covered.len()];
                Ipv6Addr::from(base | (splitmix64(&mut rng) as u128 & 0xffff_ffff_ffff_ffff))
            } else {
                Ipv6Addr::from(
                    ((splitmix64(&mut rng) as u32 as u128) << 96)
                        | (splitmix64(&mut rng) as u128 & 0xffff_ffff_ffff_ffff),
                )
            }
        })
        .collect();
    let unique: Vec<Ipv6Addr> = (0..4_000usize)
        .map(|i| {
            let base = covered[(i * 13) % covered.len()];
            Ipv6Addr::from(base | (splitmix64(&mut rng) as u128 & 0xffff_ffff_ffff_ffff))
        })
        .collect();
    let lpm6_frozen_1k_ns = median_ns(samples, 300, 20, || {
        let mut hits = 0usize;
        for &a in &addrs {
            if table.longest_match(a).is_some() {
                hits += 1;
            }
        }
        std::hint::black_box(hits);
    });
    let frozen_batch_4k_unique_ns = median_ns(samples, 300, 20, || {
        std::hint::black_box(table.longest_match_many(&unique).len());
    });
    LpmProbe {
        lpm4_frozen_1k_ns,
        lpm6_frozen_1k_ns,
        frozen_batch_4k_unique_ns,
        samples,
    }
}

/// Pipeline throughput, mirroring `benches/traffic.rs`: 5 days of residence
/// A at 1/200 sampling into aggregate sinks, and 200k long-tail flows
/// attributed in batches over a 100k-AS RIB via the interned [`AsAgg`].
fn traffic_probe() -> TrafficProbe {
    let world = World::generate(&WorldConfig {
        num_sites: 1_000,
        ..WorldConfig::small()
    });
    let profile = paper_residences().remove(0);
    let cfg = TrafficConfig {
        num_days: 5,
        scale: 1.0 / 200.0,
        threads: 1,
        ..TrafficConfig::default()
    };
    let samples = 9;
    let synth_residence_5d_ns = median_ns(samples, 200, 50, || {
        let mut sink = (ScopeFamilyAgg::new(cfg.num_days), FlowStatsAgg::new());
        synthesize_residence_into(&world, profile.clone(), &cfg, 0, &mut sink);
        std::hint::black_box(sink.0.overall(Scope::External).total_flows());
    });
    let tail_world = World::generate(
        &WorldConfig {
            num_sites: 200,
            ..WorldConfig::small()
        }
        .with_long_tail(100_000),
    );
    let mut sink = CollectSink::new();
    synthesize_long_tail_into(
        &tail_world,
        &LongTailTrafficConfig {
            num_days: 1,
            flows_per_day: 200_000,
            threads: 1,
            ..LongTailTrafficConfig::default()
        },
        &mut sink,
    );
    let records = sink.into_records();
    let per_as_agg_200k_frozen_ns = median_ns(5, 200, 60, || {
        let mut agg = AsAgg::new(&tail_world.rib, &tail_world.registry);
        for chunk in records.chunks(8_192) {
            agg.accept_batch(chunk);
        }
        std::hint::black_box((agg.observed_as_count(), agg.total_bytes()));
    });
    // Spill/replay throughput over the same 200k-record stream: encode and
    // seal the columnar day-parts, then decode them back through a digest
    // sink.
    let spill = SpillProbe::new("bench-snapshot", records);
    let spill_write_200k_ns = median_ns(5, 200, 60, || {
        let parts = spill.write();
        std::hint::black_box(parts.unwrap_or_else(|e| fatal(&format!("spill probe: {e}"))));
    });
    let spill_replay_200k_ns = median_ns(5, 200, 60, || {
        let digest = spill.replay();
        std::hint::black_box(digest.unwrap_or_else(|e| fatal(&format!("replay probe: {e}"))));
    });
    TrafficProbe {
        synth_residence_5d_ns,
        per_as_agg_200k_frozen_ns,
        spill_write_200k_ns,
        spill_replay_200k_ns,
        samples,
    }
}

// ---------------------------------------------------------------------------
// Ledger append (existing bytes preserved) and --check validation
// ---------------------------------------------------------------------------

/// Splice `snapshot` (a rendered JSON object) into `path`'s `"snapshots"`
/// array, creating the array after the existing keys when absent. The
/// edited text must re-parse before it replaces the file.
fn append_to_ledger(path: &str, snapshot: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fatal(&format!("cannot read {path}: {e}")));
    if serde_json::from_str(&text).is_err() {
        fatal(&format!("{path} is not valid JSON; refusing to append"));
    }
    let edited = splice_snapshot(&text, snapshot)
        .unwrap_or_else(|| fatal(&format!("{path}: cannot locate splice point")));
    if serde_json::from_str(&edited).is_err() {
        fatal(&format!(
            "{path}: edited ledger failed to re-parse; file left untouched"
        ));
    }
    std::fs::write(path, edited).unwrap_or_else(|e| fatal(&format!("cannot write {path}: {e}")));
}

/// The pure splice: returns the edited document, or `None` when the
/// document has no top-level object to extend.
fn splice_snapshot(text: &str, snapshot: &str) -> Option<String> {
    if let Some(key) = text.find("\"snapshots\"") {
        let open = key + text[key..].find('[')?;
        let close = matching_bracket(text, open)?;
        let sep = if text[open + 1..close].trim().is_empty() {
            ""
        } else {
            ","
        };
        let mut out = String::with_capacity(text.len() + snapshot.len() + 16);
        out.push_str(text[..close].trim_end());
        out.push_str(sep);
        out.push_str("\n    ");
        out.push_str(snapshot);
        out.push_str("\n  ");
        out.push_str(&text[close..]);
        Some(out)
    } else {
        let close = text.rfind('}')?;
        let mut out = String::with_capacity(text.len() + snapshot.len() + 32);
        out.push_str(text[..close].trim_end());
        out.push_str(",\n  \"snapshots\": [\n    ");
        out.push_str(snapshot);
        out.push_str("\n  ]\n");
        out.push_str(&text[close..]);
        Some(out)
    }
}

/// Index of the `]`/`}` matching the bracket at `open`, skipping string
/// literals (with escapes) so bracket characters inside notes don't count.
fn matching_bracket(text: &str, open: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    let (mut depth, mut in_string, mut escaped) = (0i32, false, false);
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'[' | b'{' => depth += 1,
            b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

fn check_ledger(path: &str, shape: fn(&serde_json::Value) -> Result<(), String>) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            obs::error!("[bench-snapshot] {path}: {e}");
            return false;
        }
    };
    let value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            obs::error!("[bench-snapshot] {path}: invalid JSON: {e:?}");
            return false;
        }
    };
    match shape(&value) {
        Ok(()) => true,
        Err(msg) => {
            obs::error!("[bench-snapshot] {path}: {msg}");
            false
        }
    }
}

/// `BENCH_lpm.json`: a `snapshots` array of objects, each carrying at least
/// one numeric `*_ns` measurement.
fn check_lpm_shape(v: &serde_json::Value) -> Result<(), String> {
    let snaps = v
        .get("snapshots")
        .and_then(|s| s.as_array())
        .ok_or("missing \"snapshots\" array")?;
    for (i, snap) in snaps.iter().enumerate() {
        let obj = snap
            .as_object()
            .ok_or(format!("snapshots[{i}] is not an object"))?;
        let has_ns = obj
            .iter()
            .any(|(k, val)| k.ends_with("_ns") && val.as_f64().is_some());
        if !has_ns {
            return Err(format!("snapshots[{i}] has no numeric *_ns field"));
        }
    }
    Ok(())
}

/// `BENCH_traffic.json`: the historical `results` array (name + median_ns),
/// plus — once `bench-snapshot` has run — a `snapshots` array whose entries
/// each carry a date and their own results.
fn check_traffic_shape(v: &serde_json::Value) -> Result<(), String> {
    let check_results = |results: &serde_json::Value, what: &str| -> Result<(), String> {
        let rows = results
            .as_array()
            .ok_or(format!("{what} is not an array"))?;
        for (i, row) in rows.iter().enumerate() {
            if row.get("name").and_then(|n| n.as_str()).is_none()
                || row.get("median_ns").and_then(|n| n.as_f64()).is_none()
            {
                return Err(format!("{what}[{i}] needs string name + numeric median_ns"));
            }
        }
        Ok(())
    };
    check_results(v.get("results").ok_or("missing \"results\"")?, "results")?;
    if let Some(snaps) = v.get("snapshots") {
        let snaps = snaps.as_array().ok_or("\"snapshots\" is not an array")?;
        for (i, snap) in snaps.iter().enumerate() {
            if snap.get("date").and_then(|d| d.as_str()).is_none() {
                return Err(format!("snapshots[{i}] missing string date"));
            }
            check_results(
                snap.get("results")
                    .ok_or(format!("snapshots[{i}] missing results"))?,
                &format!("snapshots[{i}].results"),
            )?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Timestamp (no chrono in the tree: hand-rolled civil-date conversion)
// ---------------------------------------------------------------------------

/// Today as `YYYY-MM-DD` (UTC).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    civil_date(secs)
}

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

fn fatal(msg: &str) -> ! {
    obs::error!("[bench-snapshot] {msg}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_into_existing_snapshots_array() {
        let doc = "{\n  \"description\": \"x [not a real bracket]\",\n  \"snapshots\": [\n    {\n      \"pr\": 1\n    }\n  ]\n}\n";
        let out = splice_snapshot(doc, "{ \"date\": \"2026-08-08\" }").expect("spliced");
        let v: serde_json::Value = serde_json::from_str(&out).expect("still valid JSON");
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
    }

    #[test]
    fn splice_creates_snapshots_array_when_absent() {
        let doc = "{\n  \"bench\": \"traffic\",\n  \"results\": [\n    { \"name\": \"a\", \"median_ns\": 1.5 }\n  ]\n}\n";
        let out = splice_snapshot(
            doc,
            "{ \"date\": \"2026-08-08\", \"results\": [ { \"name\": \"b\", \"median_ns\": 2 } ] }",
        )
        .expect("spliced");
        let v: serde_json::Value = serde_json::from_str(&out).expect("still valid JSON");
        assert!(v.get("results").is_some(), "historical results kept");
        let snaps = v.get("snapshots").unwrap().as_array().unwrap();
        assert_eq!(snaps.len(), 1);
        // Splicing again lands in the array just created.
        let again = splice_snapshot(&out, "{ \"date\": \"2026-08-09\", \"results\": [] }").unwrap();
        let v2: serde_json::Value =
            serde_json::from_str(&again).expect("valid after second splice");
        assert_eq!(v2.get("snapshots").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn real_ledgers_accept_the_rendered_snapshots() {
        let lpm = LpmProbe {
            lpm4_frozen_1k_ns: 6_000,
            lpm6_frozen_1k_ns: 11_000,
            frozen_batch_4k_unique_ns: 76_000,
            samples: 15,
        };
        let traffic = TrafficProbe {
            synth_residence_5d_ns: 800_000,
            per_as_agg_200k_frozen_ns: 12_000_000,
            spill_write_200k_ns: 30_000_000,
            spill_replay_200k_ns: 20_000_000,
            samples: 9,
        };
        for rendered in [lpm.render("2026-08-08"), traffic.render("2026-08-08")] {
            let v: serde_json::Value = serde_json::from_str(&rendered).expect("snapshot is JSON");
            assert_eq!(v.get("date").and_then(|d| d.as_str()), Some("2026-08-08"));
        }
    }

    #[test]
    fn shape_checks_match_the_ledger_formats() {
        let lpm: serde_json::Value =
            serde_json::from_str("{ \"snapshots\": [ { \"pr\": 1, \"lpm6_x_ns\": 5 } ] }").unwrap();
        assert!(check_lpm_shape(&lpm).is_ok());
        let bad: serde_json::Value =
            serde_json::from_str("{ \"snapshots\": [ { \"pr\": 1 } ] }").unwrap();
        assert!(check_lpm_shape(&bad).is_err());
        let traffic: serde_json::Value = serde_json::from_str(
            "{ \"results\": [ { \"name\": \"a\", \"median_ns\": 1 } ], \"snapshots\": [ { \"date\": \"d\", \"results\": [] } ] }",
        )
        .unwrap();
        assert!(check_traffic_shape(&traffic).is_ok());
        let missing_date: serde_json::Value =
            serde_json::from_str("{ \"results\": [], \"snapshots\": [ { \"results\": [] } ] }")
                .unwrap();
        assert!(check_traffic_shape(&missing_date).is_err());
    }

    #[test]
    fn civil_date_conversion_is_correct() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(951_782_400), "2000-02-29");
        assert_eq!(civil_date(1_786_147_200), "2026-08-08");
    }
}
