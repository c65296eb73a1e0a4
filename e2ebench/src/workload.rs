//! The three anchor workloads and everything a child process does with
//! one: a timed iteration, a set-up-only run, a reference run for the pins,
//! and a traced run that rebuilds the scenario from public layer calls.
//!
//! Every function here drives the public API of `experiments` and the
//! layer crates. Each leaves `RunConfig::threads` unset, as users run it.

use crate::host;
use crate::json::{num, obj, string};
use crate::sha256;
use crate::trace::{TimedSink, Tracer};
use experiments::asfrac_exps::{as_fractions_json, AsFractionsReport, MIN_SHARE};
use experiments::millsubs_exps::{million_subs_json, MillionSubsReport, TierRow};
use experiments::{find, registry, Element, Report, RunConfig, Scenario, Session};
use flowmon::sink::FlowSink;
use flowmon::FlowRecord;
use ipv6view_core::client::AsAgg;
use serde_json::Value;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;
use trafficgen::{
    fan_out, num_shards, shard_day_records, subscriber_of_src, synthesize_long_tail_into,
    LongTailTrafficConfig, SubscriberTrafficConfig,
};
use worldgen::{World, WorldConfig};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Every `in_all` scenario on one session at the `repro` defaults,
    /// with the telemetry plane on: `repro all --metrics`.
    PaperAll,
    /// `as-fractions --sites 100000 --days 3`: world-gen and LPM.
    Asfrac100k,
    /// `million-subs --sites 20000 --days 3 --spill DIR`: the spill store.
    MillsubsSpill,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperAll,
        Workload::Asfrac100k,
        Workload::MillsubsSpill,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAll => "paper-all",
            Workload::Asfrac100k => "asfrac-100k",
            Workload::MillsubsSpill => "millsubs-spill",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The run configuration a user would pass for this workload.
    fn config(self, world_seed: u64, spill: Option<&Path>) -> RunConfig {
        let config = match self {
            Workload::PaperAll => RunConfig::default().metrics(true),
            Workload::Asfrac100k => RunConfig::default().sites(100_000).days(3),
            Workload::MillsubsSpill => RunConfig::default().sites(20_000).days(3),
        };
        let config = config.seed(world_seed);
        match spill {
            Some(dir) if self == Workload::MillsubsSpill => config.spill(dir),
            _ => config,
        }
    }

    /// The reference layout the pins are made with: one thread, metrics
    /// off, in memory. Output must not depend on any of the three.
    fn reference_config(self, world_seed: u64) -> RunConfig {
        RunConfig {
            metrics: false,
            ..self.config(world_seed, None).threads(1)
        }
    }

    /// The scenarios one iteration runs, in order.
    pub fn scenarios(self) -> Vec<&'static dyn Scenario> {
        let by_name = |name| vec![find(name).expect("registered scenario")];
        match self {
            Workload::PaperAll => registry().iter().copied().filter(|s| s.in_all()).collect(),
            Workload::Asfrac100k => by_name("as-fractions"),
            Workload::MillsubsSpill => by_name("million-subs"),
        }
    }
}

/// Digest of one scenario's Report JSON (`None` when it panicked) and of
/// each dataset it carries.
fn digest(name: &str, report: Option<&Report>) -> Value {
    let Some(report) = report else {
        return obj([("name", string(name)), ("sha", Value::Null)]);
    };
    let datasets = report
        .elements
        .iter()
        .filter_map(|e| match e {
            Element::Dataset(d) => Some((d.name.clone(), string(sha256::hex(d.json.as_bytes())))),
            _ => None,
        })
        .collect();
    obj([
        ("name", string(name)),
        ("sha", string(sha256::hex(report.to_json().as_bytes()))),
        ("datasets", Value::Object(datasets)),
    ])
}

fn run_scenarios(workload: Workload, session: &mut Session) -> Vec<(&'static str, Option<Report>)> {
    workload
        .scenarios()
        .into_iter()
        .map(|s| {
            let report = catch_unwind(AssertUnwindSafe(|| s.run(session))).ok();
            (s.name(), report)
        })
        .collect()
}

/// One timed iteration: `Session::new` to the last Report. Digests are
/// taken after the clock stops.
pub fn iteration(workload: Workload, world_seed: u64, spill: &Path) -> Value {
    let start = Instant::now();
    let mut session = Session::new(workload.config(world_seed, Some(spill)));
    let setup_s = start.elapsed().as_secs_f64();
    let reports = run_scenarios(workload, &mut session);
    let wall_s = start.elapsed().as_secs_f64();
    let digests = reports.iter().map(|(n, r)| digest(n, r.as_ref())).collect();
    obj([
        ("setup_s", num(setup_s)),
        ("wall_s", num(wall_s)),
        ("peak_rss_mb", num(host::peak_rss_mb())),
        ("cpu_s", num(host::cpu_s())),
        ("disk_mb", num(host::dir_bytes(spill) as f64 / 1e6)),
        ("reports", Value::Array(digests)),
    ])
}

/// `Session::new` alone.
pub fn setup_only(workload: Workload, world_seed: u64, spill: &Path) -> Value {
    let start = Instant::now();
    let session = Session::new(workload.config(world_seed, Some(spill)));
    let setup_s = start.elapsed().as_secs_f64();
    drop(session);
    obj([("setup_s", num(setup_s))])
}

/// The reference run whose digests the pins hold.
pub fn reference(workload: Workload, world_seed: u64) -> Vec<Value> {
    let mut session = Session::new(workload.reference_config(world_seed));
    run_scenarios(workload, &mut session)
        .iter()
        .map(|(n, r)| digest(n, r.as_ref()))
        .collect()
}

/// The traced run: the same work as an iteration, with the benchmark's own
/// spans around each call into a layer, plus per-layer counts from
/// `Session::metrics()`. The telemetry plane is on so the counts exist.
pub fn traced(workload: Workload, world_seed: u64, spill: &Path) -> Value {
    let mut tr = Tracer::new();
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    let root = tr.open(workload.name());
    let mut session = tr.time("worldgen.session_world", || {
        Session::new(workload.config(world_seed, Some(spill)).metrics(true))
    });
    let (reports, datasets) = match workload {
        Workload::PaperAll => (paper_all_traced(&mut tr, &mut session, &mut layers), vec![]),
        Workload::Asfrac100k => (vec![], vec![asfrac_traced(&mut tr, &session, &mut layers)]),
        Workload::MillsubsSpill => (
            vec![],
            vec![millsubs_traced(&mut tr, &session, &mut layers)],
        ),
    };
    tr.close(root);
    let wall_s = tr.spans()[root].dur_s;
    let cpu_s = host::cpu_s();
    let counters = session.metrics();
    let count = |name: &str| counters.counter(name).unwrap_or(0) as f64;
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };

    let mut set = |name: &str, value: f64| {
        layers.insert(name.to_string(), value);
    };
    let scenario_spans = Workload::PaperAll
        .scenarios()
        .into_iter()
        .map(|s| format!("experiments.scenario.{}", s.name()));
    for span in [
        "worldgen.session_world",
        "worldgen.longtail_world",
        "worldgen.subscriber_world",
        "crawlsim.epoch_crawl",
        "crawlsim.mainpage_crawl",
        "trafficgen.streamed",
        "trafficgen.hourly",
        "trafficgen.subs_synth",
        "core.as_agg.accept",
        "flowstore.encode",
    ]
    .map(String::from)
    .into_iter()
    .chain(scenario_spans)
    {
        set(&format!("{span}_s"), tr.total(&span));
    }
    // A producer's own work, without the timed sink it feeds.
    for span in ["trafficgen.longtail_synth", "flowstore.replay"] {
        set(&format!("{span}_s"), tr.total_self(span));
    }
    set("dnssim.queries", count("dns.queries"));
    set("happyeyeballs.races", count("he.races"));
    set(
        "happyeyeballs.v4_win_share",
        share(count("he.v4_wins"), count("he.races")),
    );
    set("iputil.lpm.frozen_lookups", count("lpm.frozen_lookups"));
    set("iputil.lpm.trie_lookups", count("lpm.lookups"));
    set(
        "iputil.lpm.memo_hit_share",
        share(
            count("lpm.memo_hits"),
            count("lpm.memo_hits") + count("lpm.memo_misses"),
        ),
    );
    let unaccounted = tr.unaccounted();
    set("experiments.unaccounted_s", unaccounted);
    set("trace.coverage_share", 1.0 - share(unaccounted, wall_s));
    set("process.cpu_s", cpu_s);
    set("process.cpu_util", share(cpu_s, wall_s * host_cpus()));
    set("process.peak_rss_mb", host::peak_rss_mb());
    // Rates and counts a workload-specific pass filled in, zero elsewhere.
    for name in [
        "crawlsim.sites_per_s",
        "crawlsim.load_ok_share",
        "crawlsim.resource_fetches",
        "trafficgen.flows",
        "trafficgen.flows_per_s",
        "flowstore.parts",
        "flowstore.bytes_per_row",
        "flowstore.replay_rows_per_s",
        "flowstore.disk_mb",
    ] {
        layers.entry(name.to_string()).or_insert(0.0);
    }

    let spans = tr
        .spans()
        .iter()
        .map(|s| {
            obj([
                ("name", string(s.name.clone())),
                ("parent", s.parent.map_or(Value::Null, |p| num(p as f64))),
                ("start_s", num(s.start_s)),
                ("dur_s", num(s.dur_s)),
                ("calls", num(s.calls as f64)),
            ])
        })
        .collect();
    obj([
        ("wall_s", num(wall_s)),
        ("reports", Value::Array(reports)),
        ("datasets", Value::Array(datasets)),
        (
            "layers",
            Value::Object(layers.into_iter().map(|(k, v)| (k, num(v))).collect()),
        ),
        ("spans", Value::Array(spans)),
    ])
}

fn host_cpus() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// `paper-all`, traced: fill each `Session` cache under its own span, then
/// run every scenario under one span each. The caches are pure functions
/// of the world, so filling them first changes no report.
fn paper_all_traced(
    tr: &mut Tracer,
    session: &mut Session,
    layers: &mut BTreeMap<String, f64>,
) -> Vec<Value> {
    let (mut sites, mut loaded, mut fetches) = (0usize, 0usize, 0usize);
    for epoch in 0..session.world.web.epochs.len() {
        let crawl = tr.time("crawlsim.epoch_crawl", || session.crawl(epoch));
        sites += crawl.sites.len();
        for site in &crawl.sites {
            if let Ok(ok) = &site.outcome {
                loaded += 1;
                fetches += ok.resources.len();
            }
        }
    }
    tr.time("crawlsim.mainpage_crawl", || {
        session.mainpage_crawl();
    });
    let flows_before = session
        .metrics()
        .counter("synth.flows_emitted")
        .unwrap_or(0);
    tr.time("trafficgen.streamed", || {
        session.streamed();
    });
    tr.time("trafficgen.hourly", || {
        session.hourly_aggs();
    });
    let flows = session
        .metrics()
        .counter("synth.flows_emitted")
        .unwrap_or(0)
        - flows_before;
    let synth_s = tr.total("trafficgen.streamed") + tr.total("trafficgen.hourly");
    let crawl_s = tr.total("crawlsim.epoch_crawl");
    layers.insert("crawlsim.sites_per_s".into(), sites as f64 / crawl_s);
    layers.insert(
        "crawlsim.load_ok_share".into(),
        loaded as f64 / sites.max(1) as f64,
    );
    layers.insert("crawlsim.resource_fetches".into(), fetches as f64);
    layers.insert("trafficgen.flows".into(), flows as f64);
    layers.insert("trafficgen.flows_per_s".into(), flows as f64 / synth_s);

    let mut digests = Vec::new();
    for s in Workload::PaperAll.scenarios() {
        let report = tr.time(&format!("experiments.scenario.{}", s.name()), || {
            catch_unwind(AssertUnwindSafe(|| s.run(session))).ok()
        });
        digests.push(digest(s.name(), report.as_ref()));
    }
    digests
}

/// The `{scenario, dataset, sha}` record a rebuilt dataset is checked by.
fn rebuilt(scenario: &str, dataset: &str, json: &str) -> Value {
    obj([
        ("scenario", string(scenario)),
        ("dataset", string(dataset)),
        ("sha", string(sha256::hex(json.as_bytes()))),
    ])
}

/// `as-fractions`, rebuilt from its layers with the scenario's parameters:
/// long-tail world-gen, long-tail synthesis into a timed `AsAgg`, then the
/// fraction table.
fn asfrac_traced(tr: &mut Tracer, session: &Session, layers: &mut BTreeMap<String, f64>) -> Value {
    let scenario = tr.open("experiments.scenario.as-fractions");
    let seed = session.world.config.seed;
    let ases = session.world.web.sites.len();
    let days = session.config.days.min(30);
    let flows_per_day = (ases * 10).clamp(20_000, 600_000);
    let world = tr.time("worldgen.longtail_world", || {
        World::generate(
            &WorldConfig {
                seed,
                num_sites: 200,
                ..WorldConfig::small()
            }
            .with_long_tail(ases),
        )
    });
    let cfg = LongTailTrafficConfig {
        seed: seed ^ 0x6173_6672_6163,
        num_days: days,
        flows_per_day,
        threads: session.config.threads.unwrap_or(1).max(1),
    };
    let mut sink = TimedSink::new(AsAgg::new(&world.rib, &world.registry));
    let synth = tr.open("trafficgen.longtail_synth");
    synthesize_long_tail_into(&world, &cfg, &mut sink);
    tr.add("core.as_agg.accept", sink.busy, sink.batches);
    tr.close(synth);
    let agg = sink.inner;
    let rows = tr.time("core.as_agg.fractions", || agg.fractions('T', MIN_SHARE));
    let report = AsFractionsReport {
        ases,
        days,
        min_share: MIN_SHARE,
        flows: days as u64 * flows_per_day as u64,
        observed_ases: agg.observed_as_count(),
        rows,
    };
    let json = tr.time("experiments.dataset_json", || as_fractions_json(&report));
    tr.close(scenario);
    let flows = report.flows as f64;
    layers.insert("trafficgen.flows".into(), flows);
    layers.insert(
        "trafficgen.flows_per_s".into(),
        flows / tr.total_self("trafficgen.longtail_synth"),
    );
    rebuilt("as-fractions", "as_fractions.json", &json)
}

/// Per-subscriber `[total, v6]` byte totals: the aggregate `million-subs`
/// builds from the replayed parts.
struct SubscriberTotals {
    totals: Vec<[u64; 2]>,
    flows: u64,
}

impl FlowSink for SubscriberTotals {
    fn accept(&mut self, record: &FlowRecord) {
        self.flows += 1;
        if let Some(t) = subscriber_of_src(record.key.src).and_then(|i| self.totals.get_mut(i)) {
            let bytes = record.total_bytes();
            t[0] += bytes;
            if record.key.src.is_ipv6() {
                t[1] += bytes;
            }
        }
    }
}

/// The adoption tiers of `million-subs`.
fn tier_rows(totals: &[[u64; 2]]) -> Vec<TierRow> {
    let labels = [
        "inactive",
        "v4-only",
        "(0, 0.2)",
        "[0.2, 0.8)",
        "[0.8, 1)",
        "v6-only",
    ];
    let mut counts = [0u64; 6];
    for &[total, v6] in totals {
        let tier = match (total, v6) {
            (0, _) => 0,
            (_, 0) => 1,
            (t, v) if t == v => 5,
            (t, v) => match v as f64 / t as f64 {
                f if f < 0.2 => 2,
                f if f < 0.8 => 3,
                _ => 4,
            },
        };
        counts[tier] += 1;
    }
    let population = totals.len().max(1) as f64;
    labels
        .iter()
        .zip(counts)
        .map(|(label, n)| TierRow {
            tier: label.to_string(),
            subscribers: n,
            share: n as f64 / population,
        })
        .collect()
}

/// `million-subs` with `--spill`, rebuilt from its layers: subscriber
/// world-gen, `(day, shard)` synthesis fanned over the workers, each
/// task's records digested and written as one day-part, then the parts
/// replayed into the per-subscriber totals.
fn millsubs_traced(
    tr: &mut Tracer,
    session: &Session,
    layers: &mut BTreeMap<String, f64>,
) -> Value {
    let scenario = tr.open("experiments.scenario.million-subs");
    let seed = session.world.config.seed;
    let subscribers = session.world.web.sites.len() * 50;
    let days = session.config.days.min(5);
    let threads = session
        .config
        .threads
        .unwrap_or_else(|| host_cpus().min(8.0) as usize);
    let world = tr.time("worldgen.subscriber_world", || {
        World::generate(
            &WorldConfig {
                seed,
                num_sites: 200,
                ..WorldConfig::small()
            }
            .with_long_tail((subscribers / 100).clamp(1_000, 10_000))
            .with_subscribers(subscribers),
        )
    });
    let cfg = SubscriberTrafficConfig {
        seed: seed ^ 0x6d69_6c73_7562,
        num_days: days,
        threads: threads.max(1),
        ..SubscriberTrafficConfig::default()
    };
    let dir = session
        .config
        .spill
        .as_ref()
        .expect("millsubs-spill sets a spill directory")
        .join("million-subs");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clearing the spill directory");
    }
    std::fs::create_dir_all(&dir).expect("creating the spill directory");

    let shards = num_shards(&world, &cfg);
    let tasks: Vec<(u32, usize)> = (0..days)
        .flat_map(|day| (0..shards).map(move |shard| (day, shard)))
        .collect();
    let mut live = flowstore::DigestSink::new();
    let mut metas = Vec::with_capacity(tasks.len());
    for window in tasks.chunks((cfg.threads * 2).max(1)) {
        let start = Instant::now();
        let buffers = fan_out(window.to_vec(), cfg.threads, |_, (day, shard)| {
            shard_day_records(&world, &cfg, day, shard)
        });
        tr.add("trafficgen.subs_synth", start.elapsed(), 1);
        for (&(day, shard), records) in window.iter().zip(buffers) {
            let start = Instant::now();
            live.accept_batch(&records);
            tr.add("flowstore.live_digest", start.elapsed(), 1);
            let path = dir.join(flowstore::part_file_name(shard as u64, day as u64, 0));
            let start = Instant::now();
            let meta = flowstore::write_part(&path, shard as u64, day as u64, 0, &records)
                .expect("writing a day-part");
            tr.add("flowstore.encode", start.elapsed(), 1);
            metas.push(meta);
        }
    }
    let parts = metas.len();
    let mut totals = SubscriberTotals {
        totals: vec![[0, 0]; subscribers],
        flows: 0,
    };
    let mut replayed = flowstore::DigestSink::new();
    let mut sink = TimedSink::new((&mut totals, &mut replayed));
    let replay = tr.open("flowstore.replay");
    let stats = flowstore::PartSet::from_metas(metas)
        .replay_into(&mut sink)
        .expect("replaying the day-parts");
    tr.add("experiments.subscriber_totals", sink.busy, sink.batches);
    tr.close(replay);
    assert_eq!(replayed.digest(), live.digest(), "spill replay diverged");

    let json = tr.time("experiments.dataset_json", || {
        let (total, v6) = totals
            .totals
            .iter()
            .fold((0u64, 0u64), |(t, v), x| (t + x[0], v + x[1]));
        million_subs_json(&MillionSubsReport {
            subscribers,
            days,
            flows: totals.flows,
            stream_digest: format!("{:#018x}", live.digest()),
            tiers: tier_rows(&totals.totals),
            v6_byte_share: v6 as f64 / total.max(1) as f64,
        })
    });
    tr.close(scenario);

    let disk = host::dir_bytes(&dir) as f64;
    let replay_s = tr.total_self("flowstore.replay");
    let flows = totals.flows as f64;
    layers.insert("trafficgen.flows".into(), flows);
    layers.insert(
        "trafficgen.flows_per_s".into(),
        flows / tr.total("trafficgen.subs_synth"),
    );
    layers.insert("flowstore.parts".into(), parts as f64);
    layers.insert(
        "flowstore.bytes_per_row".into(),
        disk / stats.rows.max(1) as f64,
    );
    layers.insert(
        "flowstore.replay_rows_per_s".into(),
        stats.rows as f64 / replay_s,
    );
    layers.insert("flowstore.disk_mb".into(), disk / 1e6);
    rebuilt("million-subs", "million_subs.json", &json)
}
