//! [`RunConfig`] and [`Session`]: the shared state every scenario runs in.
//!
//! A `Session` owns the synthetic world plus memoized views of the
//! expensive artifacts derived from it, so a sequence of scenarios — `repro
//! all`, a registry sweep in a test, or an embedding application — pays for
//! each view once. Every view is a [`OnceLock`] filled through one helper
//! that opens the view's span on the first build only, and every accessor
//! takes `&self`. The views and their spans: [`Session::crawl`] (`crawl`,
//! once per epoch), [`Session::mainpage_crawl`] (`crawl-mainpage`),
//! [`Session::hosted`] (`hosted`), [`Session::influence`] (`influence`),
//! [`Session::streamed`] (`streaming`) and [`Session::hourly_aggs`]
//! (`hourly`).
//!
//! Flow-derived views ([`Session::client_analyses`], [`Session::as_rows`],
//! [`Session::domain_rows`], [`Session::hourly_aggs`],
//! [`Session::flow_sketches`]) run one synthesis pass with composite
//! [`FlowSink`](flowmon::FlowSink) aggregators — peak memory is
//! O(residences × aggregator), independent of `days`, which is what lets
//! `--full` runs scale. No view holds flow records: the anonymized-log
//! export, the one artifact that *is* the records, synthesizes one
//! residence at a time (see [`crate::export_all`]).

use crawlsim::{crawl_epoch, main_page_view, CrawlConfig, CrawlReport};
use dnssim::Name;
use faults::FaultPlan;
use flowmon::sink::FlowStatsAgg;
use flowmon::{Scope, ScopeFamilyAgg};
use ipv6view_core::client::{
    analyze_agg, domain_fractions_from, AsAgg, AsFraction, DomainAgg, HourlyAgg, ResidenceAnalysis,
};
use ipv6view_core::cloud::{hosted_fqdns, HostedFqdn};
use ipv6view_core::influence::InfluenceReport;
use std::sync::OnceLock;
use trafficgen::{paper_residences, synthesize_profiles_with, TrafficConfig};
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
    /// `--threads` override for every crawl and synthesis pass (`None` =
    /// [`obs::par::default_threads`]).
    pub threads: Option<usize>,
    /// Fault timeline injected into every synthesis pass of the session
    /// (empty by default — an empty plan is byte-identical to no plan).
    pub faults: FaultPlan,
    /// Enable the telemetry plane (`crates/obs`) for this session. Off by
    /// default; when on, [`Session::new`] resets and enables the global
    /// plane so [`Session::metrics`] returns this session's activity.
    pub metrics: bool,
    /// Spill directory (`--spill DIR`), honoured by `million-subs` alone: it
    /// writes its flow stream as columnar day-parts under `DIR/million-subs`
    /// ([`flowstore::spill_through`]) and builds its report from their
    /// digest-verified replay, byte-identical to the in-memory report.
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

    /// Run crawls and synthesis passes on `threads` workers
    /// (output-invariant).
    pub fn threads(mut self, threads: usize) -> RunConfig {
        self.threads = Some(threads);
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

    /// Persist `million-subs`' flow stream as sorted columnar day-parts
    /// under `dir/million-subs` and build its report from their replay.
    /// Scenario output stays byte-identical to in-memory runs.
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
    crawls: Vec<OnceLock<CrawlReport>>,
    mainpage: OnceLock<CrawlReport>,
    hosted: OnceLock<Vec<HostedFqdn>>,
    influence: OnceLock<InfluenceReport>,
    streamed: OnceLock<StreamedClient>,
    hourly: OnceLock<Vec<(char, HourlyAgg)>>,
}

/// The one memo idiom: `cell`'s value, built under the span `span` on the
/// first call only, so each view's span closes once per session. Callers
/// fetch a view's inputs first, so the span times that view's build alone.
fn memo<'a, T>(cell: &'a OnceLock<T>, span: &str, build: impl FnOnce() -> T) -> &'a T {
    cell.get_or_init(|| {
        let _span = obs::span!(span);
        build()
    })
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
            long_tail_ases: 0,
            subscribers: 0,
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
            crawls: (0..epochs).map(|_| OnceLock::new()).collect(),
            mainpage: OnceLock::new(),
            hosted: OnceLock::new(),
            influence: OnceLock::new(),
            streamed: OnceLock::new(),
            hourly: OnceLock::new(),
        }
    }

    /// The scale factor relative to the paper's 100k-site crawl; used to
    /// scale absolute thresholds like "span ≥ 100".
    pub fn site_scale(&self) -> f64 {
        self.world.web.sites.len() as f64 / 100_000.0
    }

    /// The base synthesis configuration of this session: `days`, the fault
    /// plan and the `threads` override. Scenarios that need different
    /// seeds/scales start from this and override fields.
    pub fn traffic_config(&self) -> TrafficConfig {
        let defaults = TrafficConfig::default();
        TrafficConfig {
            num_days: self.config.days,
            faults: self.config.faults.clone(),
            threads: self.config.threads.map_or(defaults.threads, |t| t.max(1)),
            ..defaults
        }
    }

    /// The base crawl configuration of this session: the crawler defaults
    /// plus the `threads` override — the crawl twin of
    /// [`Session::traffic_config`].
    pub fn crawl_config(&self) -> CrawlConfig {
        let defaults = CrawlConfig::default();
        CrawlConfig {
            threads: self.config.threads.map_or(defaults.threads, |t| t.max(1)),
            ..defaults
        }
    }

    /// Crawl of one epoch.
    pub fn crawl(&self, epoch: usize) -> &CrawlReport {
        memo(&self.crawls[epoch], "crawl", || {
            obs::info!("[repro] crawling epoch {epoch} ...");
            let t0 = std::time::Instant::now();
            let report = crawl_epoch(&self.world, epoch, &self.crawl_config());
            obs::info!("[repro] crawl done in {:.1}s", t0.elapsed().as_secs_f64());
            report
        })
    }

    /// Crawl of the latest epoch (Jul 2025).
    pub fn latest_crawl(&self) -> &CrawlReport {
        self.crawl(self.world.latest_epoch())
    }

    /// Main-page-only ablation crawl of the latest epoch: the
    /// [`main_page_view`] of the latest crawl, equal to a crawl with
    /// `click_links: false` but crawling nothing itself.
    pub fn mainpage_crawl(&self) -> &CrawlReport {
        let full = self.latest_crawl();
        memo(&self.mainpage, "crawl-mainpage", || {
            main_page_view(&self.world, full)
        })
    }

    /// BGP + AS2Org attribution of every FQDN of the latest crawl (§5). The
    /// latest epoch is the only one any caller attributes.
    pub fn hosted(&self) -> &[HostedFqdn] {
        let crawl = self.latest_crawl();
        memo(&self.hosted, "hosted", || {
            hosted_fqdns(crawl, &self.world.rib, &self.world.registry)
        })
        .as_slice()
    }

    /// Influence analysis of the latest crawl (§4).
    pub fn influence(&self) -> &InfluenceReport {
        let crawl = self.latest_crawl();
        memo(&self.influence, "influence", || {
            InfluenceReport::compute(crawl, &self.world.psl)
        })
    }

    /// The streaming client pass: the nine-month traffic run at 1/1000
    /// sampling, with every record dying in its aggregators. One pass feeds
    /// Table 1, Fig 1/3/4/14–17 and the flow-shape sketches.
    ///
    /// The composite per-residence sink is a plain 4-tuple of aggregators —
    /// the [`FlowSink`](flowmon::FlowSink) tuple combinators replace the
    /// bespoke struct this pass once needed.
    pub fn streamed(&self) -> &StreamedClient {
        memo(&self.streamed, "streaming", || {
            obs::info!(
                "[repro] synthesizing {}-day traffic for 5 residences (streaming aggregators) ...",
                self.config.days
            );
            let t0 = std::time::Instant::now();
            let cfg = self.traffic_config();
            let world = &self.world;
            let results = synthesize_profiles_with(world, paper_residences(), &cfg, |_, _| {
                (
                    ScopeFamilyAgg::new(cfg.num_days),
                    FlowStatsAgg::new(),
                    AsAgg::new(&world.rib, &world.registry),
                    DomainAgg::new(&world.client_zone, &world.psl),
                )
            });
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
            obs::info!(
                "[repro] streaming pass done in {:.1}s",
                t0.elapsed().as_secs_f64()
            );
            StreamedClient {
                analyses,
                as_rows,
                domains,
                sketches,
            }
        })
    }

    /// Per-residence Table 1 analyses (streaming).
    pub fn client_analyses(&self) -> &[ResidenceAnalysis] {
        &self.streamed().analyses
    }

    /// Per-(AS, residence) fraction rows (streaming).
    pub fn as_rows(&self) -> &[AsFraction] {
        &self.streamed().as_rows
    }

    /// Per-domain fraction rows (streaming).
    pub fn domain_rows(&self) -> &[(Name, Vec<f64>)] {
        &self.streamed().domains
    }

    /// Per-residence flow duration/size sketches (streaming).
    pub fn flow_sketches(&self) -> &[(char, FlowStatsAgg)] {
        &self.streamed().sketches
    }

    /// Dense (1/20 sampling) hourly aggregates for the MSTL figures: one
    /// external-scope [`HourlyAgg`] per residence over the first
    /// `min(days, 35)` days, streamed — the dense run's records are never
    /// held either.
    pub fn hourly_aggs(&self) -> &[(char, HourlyAgg)] {
        memo(&self.hourly, "hourly", || {
            obs::info!("[repro] synthesizing dense traffic (hourly analyses, streaming) ...");
            let cfg = TrafficConfig {
                num_days: self.config.days.min(63),
                scale: 1.0 / 20.0,
                ..self.traffic_config()
            };
            let range = 0..cfg.num_days.min(35);
            synthesize_profiles_with(&self.world, paper_residences(), &cfg, |_, _| {
                HourlyAgg::new(Scope::External, range.clone())
            })
            .into_iter()
            .map(|(summary, agg)| (summary.profile.key, agg))
            .collect()
        })
        .as_slice()
    }

    /// Snapshot of the telemetry plane: stage spans, pipeline counters, and
    /// flow-shape histograms accumulated since this session started. Empty
    /// unless the session was built with [`RunConfig::metrics`] (or the
    /// caller enabled `obs` directly). Counts are cumulative across every
    /// scenario the session has run — the memoized views mean an artifact
    /// is built (and therefore counted) once.
    pub fn metrics(&self) -> obs::MetricsReport {
        obs::snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mainpage_crawl_equals_a_main_page_only_crawl() {
        let session = Session::new(RunConfig::default().sites(300).seed(7).days(2));
        let cfg = CrawlConfig {
            click_links: false,
            ..session.crawl_config()
        };
        let crawled = crawl_epoch(&session.world, session.world.latest_epoch(), &cfg);
        let view = session.mainpage_crawl();
        assert!(!view.click_links);
        assert_eq!(view.sites.len(), crawled.sites.len());
        for (a, b) in view.sites.iter().zip(&crawled.sites) {
            assert_eq!(
                serde_json::to_string(a).expect("serializable"),
                serde_json::to_string(b).expect("serializable"),
                "main-page crawl of {} differs",
                a.domain
            );
        }
    }

    #[test]
    fn crawl_views_equal_fresh_computations() {
        let session = Session::new(RunConfig::default().sites(300).seed(7).days(2));
        let (world, crawl) = (&session.world, session.latest_crawl());
        let fresh_hosted = hosted_fqdns(crawl, &world.rib, &world.registry);
        let fresh_influence = InfluenceReport::compute(crawl, &world.psl);
        assert!(!fresh_hosted.is_empty() && !fresh_influence.sites.is_empty());
        assert_eq!(
            serde_json::to_string(session.hosted()).expect("serializable"),
            serde_json::to_string(&fresh_hosted).expect("serializable"),
            "hosted() differs from a fresh attribution"
        );
        assert_eq!(
            serde_json::to_string(session.influence()).expect("serializable"),
            serde_json::to_string(&fresh_influence).expect("serializable"),
            "influence() differs from a fresh influence analysis"
        );
    }
}
