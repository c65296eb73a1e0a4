//! [`RunConfig`] and [`Session`]: the shared state every scenario runs in.
//!
//! A `Session` owns the synthetic world plus lazily-built caches of the
//! expensive derived artifacts (crawls, traffic runs, streaming aggregate
//! passes), so a sequence of scenarios — `repro all`, a registry sweep in a
//! test, or an embedding application — pays for each artifact once.
//!
//! Flow-derived experiments come in two flavors. The *streaming* caches
//! ([`Session::client_analyses`], [`Session::as_rows`],
//! [`Session::domain_rows`], [`Session::hourly_aggs`],
//! [`Session::flow_sketches`]) run one synthesis pass with composite
//! [`FlowSink`](flowmon::FlowSink) aggregators — peak memory is
//! O(residences × aggregator),
//! independent of `days`, which is what lets `--full` runs scale.
//! [`Session::traffic`] still materializes every record, but only the
//! anonymized-log export needs it (raw flow logs are the one artifact that
//! *is* the records).

use crawlsim::{crawl_epoch, CrawlConfig, CrawlReport};
use dnssim::Name;
use faults::FaultPlan;
use flowmon::sink::FlowStatsAgg;
use flowmon::{Scope, ScopeFamilyAgg};
use ipv6view_core::client::{
    analyze_agg, domain_fractions_from, AsAgg, AsFraction, DomainAgg, HourlyAgg, ResidenceAnalysis,
};
use trafficgen::{
    paper_residences, synthesize_all, synthesize_profiles_with, ResidenceDataset, TrafficConfig,
};
use worldgen::{World, WorldConfig};

/// Typed run parameters: what the `repro` flags used to thread positionally.
///
/// Build one with the chainable setters and hand it to [`Session::new`]:
///
/// ```
/// use experiments::{RunConfig, Session};
/// let session = Session::new(RunConfig::default().sites(200).seed(7).days(2));
/// assert_eq!(session.world.web.sites.len(), 200);
/// ```
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Crawl-list size (the paper's full scale is 100 000).
    pub sites: usize,
    /// World seed; every derived artifact is a pure function of it.
    pub seed: u64,
    /// Traffic duration in days (the paper observes ~273).
    pub days: u32,
    /// `--threads` override for every synthesis pass (`None` = default).
    pub threads: Option<usize>,
    /// `--day-threads` override (`None` = default).
    pub day_threads: Option<usize>,
    /// Fault timeline injected into every synthesis pass of the session
    /// (empty by default — an empty plan is byte-identical to no plan).
    pub faults: FaultPlan,
    /// Enable the telemetry plane (`crates/obs`) for this session. Off by
    /// default; when on, [`Session::new`] resets and enables the global
    /// plane so [`Session::metrics`] returns this session's activity.
    pub metrics: bool,
    /// Spill directory for flow streams (`--spill DIR`). When set, the
    /// flow-producing passes write sorted columnar day-parts
    /// ([`flowstore`]) instead of holding records, and every replay is
    /// digest-verified against the live stream. Scenario reports stay
    /// byte-identical to in-memory runs — the registry tests assert it —
    /// so this trades disk for peak RSS, never answers.
    pub spill: Option<std::path::PathBuf>,
}

impl Default for RunConfig {
    /// The `repro` defaults: a 20k-site world (1/5th of the paper's scale),
    /// the reference seed, and the paper's nine-month duration.
    fn default() -> RunConfig {
        RunConfig {
            sites: 20_000,
            seed: 0x1f6_ad0b,
            days: 273,
            threads: None,
            day_threads: None,
            faults: FaultPlan::default(),
            metrics: false,
            spill: None,
        }
    }
}

impl RunConfig {
    /// Set the crawl-list size.
    pub fn sites(mut self, sites: usize) -> RunConfig {
        self.sites = sites;
        self
    }

    /// Set the world seed.
    pub fn seed(mut self, seed: u64) -> RunConfig {
        self.seed = seed;
        self
    }

    /// Set the traffic duration in days.
    pub fn days(mut self, days: u32) -> RunConfig {
        self.days = days;
        self
    }

    /// Fan synthesis passes over `threads` workers (output-invariant).
    pub fn threads(mut self, threads: usize) -> RunConfig {
        self.threads = Some(threads);
        self
    }

    /// Additionally fan the days inside one residence (output-invariant).
    pub fn day_threads(mut self, day_threads: usize) -> RunConfig {
        self.day_threads = Some(day_threads);
        self
    }

    /// Inject a deterministic fault timeline into every synthesis pass.
    pub fn faults(mut self, faults: FaultPlan) -> RunConfig {
        self.faults = faults;
        self
    }

    /// Record telemetry (spans, counters, histograms) for this session.
    /// Scenario output stays byte-identical — the plane observes, never
    /// perturbs. Read the snapshot with [`Session::metrics`].
    pub fn metrics(mut self, on: bool) -> RunConfig {
        self.metrics = on;
        self
    }

    /// Spill flow streams to sorted columnar day-parts under `dir`. Every
    /// replay is digest-verified against the live stream and scenario
    /// output stays byte-identical to in-memory runs.
    pub fn spill(mut self, dir: impl Into<std::path::PathBuf>) -> RunConfig {
        self.spill = Some(dir.into());
        self
    }

    /// The paper's full 100k-site scale.
    pub fn full(mut self) -> RunConfig {
        self.sites = 100_000;
        self
    }
}

/// Everything the client-side figures read, computed in one streaming
/// synthesis pass (no flow record survives its push).
pub struct StreamedClient {
    /// Per-residence Table 1 rows + daily series, profile order.
    pub analyses: Vec<ResidenceAnalysis>,
    /// Per-(AS, residence) fraction rows (Fig 3/4), residence-major,
    /// ASN-sorted within a residence. Computed at the paper's 0.01%
    /// volume floor.
    pub as_rows: Vec<AsFraction>,
    /// Per-domain fraction rows (Fig 17), at the paper's thresholds
    /// (≥ 10 kB sampled volume, ≥ 3 residences).
    pub domains: Vec<(Name, Vec<f64>)>,
    /// Per-residence flow duration/size sketches.
    pub sketches: Vec<(char, FlowStatsAgg)>,
}

/// Lazily-built shared state for all scenarios of one invocation.
pub struct Session {
    /// The synthetic Internet.
    pub world: World,
    /// The run parameters this session was built with.
    pub config: RunConfig,
    crawls: Vec<Option<CrawlReport>>,
    crawl_mainpage_only: Option<CrawlReport>,
    traffic: Option<Vec<ResidenceDataset>>,
    streamed: Option<StreamedClient>,
    hourly: Option<Vec<(char, HourlyAgg)>>,
}

impl Session {
    /// Generate the world (this is the expensive step, done eagerly so the
    /// user sees progress immediately).
    pub fn new(config: RunConfig) -> Session {
        if config.metrics {
            // Fresh plane per session: drop whatever a previous session
            // recorded so `metrics()` reflects exactly this session.
            obs::set_enabled(true);
            obs::reset();
        }
        let (sites, seed) = (config.sites, config.seed);
        obs::info!("[repro] generating world: {sites} sites, seed {seed:#x} ...");
        let t0 = std::time::Instant::now();
        let world_config = WorldConfig {
            seed,
            num_sites: sites,
            num_epochs: 3,
            long_tail_ases: 0,
            subscribers: 0,
            calibration: worldgen::Calibration::default(),
        };
        let world = {
            let _span = obs::span!("world-gen");
            World::generate(&world_config)
        };
        obs::info!(
            "[repro] world ready in {:.1}s ({} third-party domains, {} zone names in Jul 2025)",
            t0.elapsed().as_secs_f64(),
            world.web.third_parties.len(),
            world.zone(world.latest_epoch()).name_count(),
        );
        let epochs = world.web.epochs.len();
        Session {
            world,
            config,
            crawls: (0..epochs).map(|_| None).collect(),
            crawl_mainpage_only: None,
            traffic: None,
            streamed: None,
            hourly: None,
        }
    }

    /// The scale factor relative to the paper's 100k-site crawl; used to
    /// scale absolute thresholds like "span ≥ 100".
    pub fn site_scale(&self) -> f64 {
        self.world.web.sites.len() as f64 / 100_000.0
    }

    /// The base synthesis configuration of this session: `days` plus the
    /// `threads` / `day_threads` overrides. Scenarios that need different
    /// seeds/scales start from this and override fields.
    pub fn traffic_config(&self) -> TrafficConfig {
        let mut cfg = TrafficConfig {
            num_days: self.config.days,
            faults: self.config.faults.clone(),
            ..TrafficConfig::default()
        };
        if let Some(t) = self.config.threads {
            cfg.threads = t.max(1);
        }
        if let Some(t) = self.config.day_threads {
            cfg.day_threads = t.max(1);
        }
        cfg
    }

    /// Crawl (cached) of one epoch.
    pub fn crawl(&mut self, epoch: usize) -> &CrawlReport {
        if self.crawls[epoch].is_none() {
            obs::info!("[repro] crawling epoch {epoch} ...");
            let t0 = std::time::Instant::now();
            let _span = obs::span!("crawl", epoch = epoch);
            let report = crawl_epoch(&self.world, epoch, &CrawlConfig::default());
            drop(_span);
            obs::info!("[repro] crawl done in {:.1}s", t0.elapsed().as_secs_f64());
            self.crawls[epoch] = Some(report);
        }
        self.crawls[epoch].as_ref().expect("just filled")
    }

    /// Crawl of the latest epoch (Jul 2025).
    pub fn latest_crawl(&mut self) -> &CrawlReport {
        let e = self.world.latest_epoch();
        self.crawl(e)
    }

    /// Shared-reference accessor for an already-run crawl (panics if the
    /// epoch has not been crawled yet — call [`Session::crawl`] first).
    /// Exists so call sites can borrow the crawl and `world` fields
    /// together.
    pub fn crawl_ref(&self, epoch: usize) -> &CrawlReport {
        self.crawls[epoch]
            .as_ref()
            .expect("crawl(epoch) must run before crawl_ref(epoch)")
    }

    /// Shared-reference accessor for already-synthesized traffic.
    pub fn traffic_ref(&self) -> &[ResidenceDataset] {
        self.traffic
            .as_ref()
            .expect("traffic() must run before traffic_ref()")
    }

    /// Main-page-only ablation crawl of the latest epoch.
    pub fn mainpage_crawl(&mut self) -> &CrawlReport {
        if self.crawl_mainpage_only.is_none() {
            obs::info!("[repro] crawling latest epoch (main-page-only ablation) ...");
            let cfg = CrawlConfig {
                click_links: false,
                ..CrawlConfig::default()
            };
            let _span = obs::span!("crawl-mainpage");
            let report = crawl_epoch(&self.world, self.world.latest_epoch(), &cfg);
            self.crawl_mainpage_only = Some(report);
        }
        self.crawl_mainpage_only.as_ref().expect("just filled")
    }

    /// The nine-month traffic run at 1/1000 sampling, fully materialized.
    /// Only the anonymized-flow-log export should need this; every
    /// aggregate analysis reads the streaming caches instead.
    pub fn traffic(&mut self) -> &[ResidenceDataset] {
        if self.traffic.is_none() {
            obs::info!(
                "[repro] synthesizing {}-day traffic for 5 residences (materialized) ...",
                self.config.days
            );
            let t0 = std::time::Instant::now();
            let cfg = self.traffic_config();
            let _span = obs::span!("traffic");
            let ds = synthesize_all(&self.world, &cfg);
            drop(_span);
            let flows: usize = ds.iter().map(|d| d.flows.len()).sum();
            obs::info!(
                "[repro] traffic done in {:.1}s ({flows} sampled flow records)",
                t0.elapsed().as_secs_f64()
            );
            self.traffic = Some(ds);
        }
        self.traffic.as_ref().expect("just filled")
    }

    /// The streaming client pass: same seed and sampling as
    /// [`Session::traffic`], but every record dies in its aggregators. One
    /// pass feeds Table 1, Fig 1/3/4/14–17 and the flow-shape sketches.
    ///
    /// The composite per-residence sink is a plain 4-tuple of aggregators —
    /// the [`FlowSink`](flowmon::FlowSink) tuple combinators replace the
    /// bespoke struct this pass once needed.
    pub fn streamed(&mut self) -> &StreamedClient {
        if self.streamed.is_none() {
            obs::info!(
                "[repro] synthesizing {}-day traffic for 5 residences (streaming aggregators) ...",
                self.config.days
            );
            let t0 = std::time::Instant::now();
            let _span = obs::span!("streaming");
            let cfg = self.traffic_config();
            let world = &self.world;
            let make_aggs = || {
                (
                    ScopeFamilyAgg::new(cfg.num_days),
                    FlowStatsAgg::new(),
                    AsAgg::new(&world.rib, &world.registry),
                    DomainAgg::new(&world.client_zone, &world.psl),
                )
            };
            let results = match self.config.spill.clone() {
                None => {
                    synthesize_profiles_with(world, paper_residences(), &cfg, |_, _| make_aggs())
                }
                Some(spill) => {
                    // Spill mode: tee every residence's stream into a
                    // columnar day-part writer alongside the aggregators,
                    // then replay the sealed parts and insist the replay
                    // digest matches the live stream byte for byte.
                    let dir = spill.join("residences");
                    if dir.exists() {
                        if let Err(e) = std::fs::remove_dir_all(&dir) {
                            panic!("clearing spill dir {}: {e}", dir.display());
                        }
                    }
                    let with_spill =
                        synthesize_profiles_with(world, paper_residences(), &cfg, |i, _| {
                            let spill_sink = match flowstore::SpillSink::new(&dir, i as u64) {
                                Ok(s) => s,
                                Err(e) => panic!("opening spill sink {i}: {e}"),
                            };
                            (make_aggs(), (flowstore::DigestSink::new(), spill_sink))
                        });
                    let mut results = Vec::with_capacity(with_spill.len());
                    for (summary, (aggs, (live, spill_sink))) in with_spill {
                        let metas = match spill_sink.finish() {
                            Ok(m) => m,
                            Err(e) => panic!("sealing spill parts: {e}"),
                        };
                        let mut replayed = flowstore::DigestSink::new();
                        let stats = match flowstore::PartSet::from_metas(metas)
                            .replay_into(&mut replayed)
                        {
                            Ok(s) => s,
                            Err(e) => panic!("replaying spilled parts: {e}"),
                        };
                        if replayed.digest() != live.digest() {
                            panic!(
                                "spill replay diverged for residence {}: live {:#018x} ({} rows) vs replay {:#018x} ({} rows)",
                                summary.profile.key,
                                live.digest(),
                                live.count(),
                                replayed.digest(),
                                stats.rows,
                            );
                        }
                        obs::debug!(
                            "[repro] spill verified: residence {} — {} parts, {} rows, digest {:#018x}",
                            summary.profile.key,
                            stats.parts,
                            stats.rows,
                            live.digest(),
                        );
                        results.push((summary, aggs));
                    }
                    results
                }
            };
            let mut analyses = Vec::with_capacity(results.len());
            let mut as_rows = Vec::new();
            let mut sketches = Vec::with_capacity(results.len());
            let mut domain_aggs = Vec::with_capacity(results.len());
            for (summary, (scope, stats, as_agg, domains)) in results {
                let key = summary.profile.key;
                analyses.push(analyze_agg(key, summary.scale, &scope));
                as_rows.extend(as_agg.fractions(key, 0.0001));
                sketches.push((key, stats));
                domain_aggs.push(domains);
            }
            let domains = domain_fractions_from(&domain_aggs, 10_000, 3);
            drop(_span);
            obs::info!(
                "[repro] streaming pass done in {:.1}s",
                t0.elapsed().as_secs_f64()
            );
            self.streamed = Some(StreamedClient {
                analyses,
                as_rows,
                domains,
                sketches,
            });
        }
        self.streamed.as_ref().expect("just filled")
    }

    /// Per-residence Table 1 analyses (streaming).
    pub fn client_analyses(&mut self) -> &[ResidenceAnalysis] {
        &self.streamed().analyses
    }

    /// Per-(AS, residence) fraction rows (streaming).
    pub fn as_rows(&mut self) -> &[AsFraction] {
        &self.streamed().as_rows
    }

    /// Per-domain fraction rows (streaming).
    pub fn domain_rows(&mut self) -> &[(Name, Vec<f64>)] {
        &self.streamed().domains
    }

    /// Per-residence flow duration/size sketches (streaming).
    pub fn flow_sketches(&mut self) -> &[(char, FlowStatsAgg)] {
        &self.streamed().sketches
    }

    /// Dense (1/20 sampling) hourly aggregates for the MSTL figures: one
    /// external-scope [`HourlyAgg`] per residence over the first
    /// `min(days, 35)` days, streamed — the dense run's records are never
    /// held either.
    pub fn hourly_aggs(&mut self) -> &[(char, HourlyAgg)] {
        if self.hourly.is_none() {
            obs::info!("[repro] synthesizing dense traffic (hourly analyses, streaming) ...");
            let _span = obs::span!("hourly");
            let cfg = TrafficConfig {
                num_days: self.config.days.min(63),
                scale: 1.0 / 20.0,
                ..self.traffic_config()
            };
            let range = 0..cfg.num_days.min(35);
            let results =
                synthesize_profiles_with(&self.world, paper_residences(), &cfg, |_, _| {
                    HourlyAgg::new(Scope::External, range.clone())
                });
            self.hourly = Some(
                results
                    .into_iter()
                    .map(|(summary, agg)| (summary.profile.key, agg))
                    .collect(),
            );
        }
        self.hourly.as_ref().expect("just filled")
    }

    /// Snapshot of the telemetry plane: stage spans, pipeline counters, and
    /// flow-shape histograms accumulated since this session started. Empty
    /// unless the session was built with [`RunConfig::metrics`] (or the
    /// caller enabled `obs` directly). Counts are cumulative across every
    /// scenario the session has run — the caches mean an artifact is built
    /// (and therefore counted) once.
    pub fn metrics(&self) -> obs::MetricsReport {
        obs::snapshot()
    }
}
