//! `as-fractions`: the per-AS flow-fraction table at routing-table scale —
//! the paper's non-binary per-AS view (§3.4, Fig 3/4) extended from the
//! ~40-AS head catalog to a ~100k-AS long-tail RIB.
//!
//! The pipeline is the whole point: a long-tail world
//! (`WorldConfig::long_tail_ases`) announces the tail into the real RIB,
//! `trafficgen::synthesize_long_tail_into` streams flow records through the
//! [`FlowSink`](flowmon::FlowSink) machinery, and a dense
//! [`AsAgg`] (a `SymVec` keyed by the registry's interned AS symbols)
//! attributes every record via LPM — so peak memory is O(ASes), independent
//! of `--days`, and the emitted table is byte-identical at any
//! `--threads` count. Days are synthesized on the session's thread count,
//! like every other pass, and reach the aggregator in bounded chunks: the
//! records alive at once scale with the threads, not with a day.

use crate::report::Report;
use crate::session::Session;
use ipv6view_core::client::{AsAgg, AsFraction};
use ipv6view_core::report::{render_cdf, TextTable};
use netstats::Ecdf;
use serde::Serialize;
use trafficgen::{synthesize_long_tail_into, LongTailTrafficConfig};
use worldgen::{World, WorldConfig};

/// The paper's per-AS volume floor: 0.01% of attributed bytes, inclusive.
pub const MIN_SHARE: f64 = 0.0001;

/// Inputs of one `as-fractions` run (all deterministic knobs explicit so
/// tests and the export path can shrink them).
#[derive(Debug, Clone)]
pub struct AsFractionsParams {
    /// World seed (tail registration and traffic derive from it).
    pub seed: u64,
    /// Long-tail AS count (the paper-scale run uses ~100 000).
    pub ases: usize,
    /// Days of synthesized traffic.
    pub days: u32,
    /// Flow records per day.
    pub flows_per_day: usize,
    /// Day-level worker threads, the session's `--threads` or
    /// [`obs::par::default_threads`]. Output is invariant to this; memory
    /// grows by at most `2 × threads × (`[`obs::par::QUEUE_DEPTH`]` + 1)`
    /// chunks of [`trafficgen::longtail::LONG_TAIL_CHUNK`] records.
    pub threads: usize,
}

/// The exportable dataset: run parameters plus every kept per-AS row.
#[derive(Debug, Clone, Serialize)]
pub struct AsFractionsReport {
    /// Long-tail AS count of the world.
    pub ases: usize,
    /// Days synthesized.
    pub days: u32,
    /// Applied volume floor (inclusive).
    pub min_share: f64,
    /// Flow records streamed.
    pub flows: u64,
    /// Distinct ASes observed in the stream.
    pub observed_ases: usize,
    /// Rows at or above the floor, sorted by ASN.
    pub rows: Vec<AsFraction>,
}

/// Run the streaming pipeline and build the report. One [`AsAgg`] is the
/// only per-AS state — the record stream dies in it.
pub fn as_fractions_report(params: &AsFractionsParams) -> AsFractionsReport {
    // A routing-table-scale world: the web side stays tiny (the crawl is
    // irrelevant here), the RIB carries the tail.
    let world = World::generate(
        &WorldConfig {
            seed: params.seed,
            num_sites: 200,
            ..WorldConfig::small()
        }
        .with_long_tail(params.ases),
    );
    let cfg = LongTailTrafficConfig {
        seed: params.seed ^ 0x6173_6672_6163, // "asfrac"
        num_days: params.days,
        flows_per_day: params.flows_per_day,
        threads: params.threads.max(1),
    };
    let mut agg = AsAgg::new(&world.rib, &world.registry);
    synthesize_long_tail_into(&world, &cfg, &mut agg);
    let rows = agg.fractions('T', MIN_SHARE);
    AsFractionsReport {
        ases: params.ases,
        days: params.days,
        min_share: MIN_SHARE,
        flows: params.days as u64 * params.flows_per_day as u64,
        observed_ases: agg.observed_as_count(),
        rows,
    }
}

/// Serialize a report as the exportable dataset (stable field order; same
/// seed ⇒ byte-identical output at any thread count).
pub fn as_fractions_json(report: &AsFractionsReport) -> String {
    serde_json::to_string_pretty(report).expect("serializable")
}

/// Build the `as-fractions` scenario report from explicit params.
fn as_fractions_report_for(params: &AsFractionsParams) -> Report {
    let mut r = Report::new("as-fractions");
    r.heading("AS fractions — per-AS IPv6 flow fractions at routing-table scale");
    let t0 = std::time::Instant::now(); // tidy:allow(wall-clock): elapsed time feeds the obs::info diagnostic below, never the Report
    let report = as_fractions_report(params);
    obs::info!(
        "[repro] streamed {} flows over {} tail ASes in {:.1}s (per-AS state: dense SymVec, O(ASes))",
        report.flows,
        params.ases,
        t0.elapsed().as_secs_f64()
    );
    r.line(format!(
        "{} ASes observed, {} at or above the {:.2}% floor (inclusive)",
        report.observed_ases,
        report.rows.len(),
        report.min_share * 100.0
    ));

    // The Table 1 shape, per AS: volume, share, byte and flow fractions.
    let mut top: Vec<&AsFraction> = report.rows.iter().collect();
    top.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.asn.cmp(&b.asn)));
    let mut t = TextTable::new(vec![
        "ASN", "category", "GB", "share", "v6 bytes", "v6 flows",
    ]);
    for row in top.iter().take(15) {
        t.row(vec![
            format!("AS{}", row.asn),
            format!("{:?}", row.category),
            format!("{:.2}", row.bytes as f64 / 1e9),
            format!("{:.4}", row.share),
            format!("{:.3}", row.fraction),
            format!("{:.3}", row.flow_fraction),
        ]);
    }
    r.table(t);

    // The floor CDF: how per-AS traffic shares distribute — what moving
    // `min_share` would keep or drop.
    let shares: Vec<f64> = report.rows.iter().map(|row| row.share).collect();
    r.raw(render_cdf(
        "per-AS share of attributed bytes",
        &Ecdf::new(shares),
        5,
    ));
    // The non-binary adoption view over the kept population.
    let fracs: Vec<f64> = report.rows.iter().map(|row| row.fraction).collect();
    let v4_only = fracs.iter().filter(|&&f| f == 0.0).count();
    r.raw(render_cdf(
        "per-AS IPv6 byte fraction",
        &Ecdf::new(fracs),
        5,
    ));
    r.line(format!(
        "{v4_only} of {} kept ASes are IPv4-only; the rest spread over (0, 1) — \n\
         the long tail is where fraction-of-traffic diverges from binary adoption",
        report.rows.len()
    ));
    r.dataset("as_fractions.json", as_fractions_json(&report));
    r
}

/// `as-fractions`: stream a long-tail world through the per-AS pipeline
/// and print the Table 1-shaped per-AS fraction table plus the floor and
/// adoption CDFs.
pub fn as_fractions(s: &mut Session) -> Report {
    // `--sites` doubles as the tail-scale knob (100k sites = the paper's
    // crawl scale = a full routing table's origin-AS count).
    let ases = s.config.sites;
    let params = AsFractionsParams {
        seed: s.config.seed,
        ases,
        days: s.config.days.min(30),
        flows_per_day: (ases * 10).clamp(20_000, 600_000),
        threads: s.config.threads.unwrap_or_else(obs::par::default_threads),
    };
    as_fractions_report_for(&params)
}

/// The export-scale `as-fractions` report (300-AS tail, 3-day cap,
/// matching the published dataset's parameters).
pub fn as_fractions_export_report(s: &mut Session) -> Report {
    let params = AsFractionsParams {
        seed: s.config.seed,
        ases: 300,
        days: s.config.days.min(3),
        flows_per_day: 10_000,
        threads: s.config.threads.unwrap_or_else(obs::par::default_threads),
    };
    as_fractions_report_for(&params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::RunConfig;

    fn params(threads: usize) -> AsFractionsParams {
        AsFractionsParams {
            seed: 77,
            ases: 400,
            days: 3,
            flows_per_day: 5_000,
            threads,
        }
    }

    #[test]
    fn export_is_byte_identical_across_thread_counts() {
        let a = as_fractions_json(&as_fractions_report(&params(1)));
        for threads in [2, 3, 4] {
            let b = as_fractions_json(&as_fractions_report(&params(threads)));
            assert_eq!(a, b, "{threads} threads changed the exported table");
        }
        assert!(a.contains("\"min_share\""));
        // A different seed produces a different dataset.
        let c = as_fractions_json(&as_fractions_report(&AsFractionsParams {
            seed: 78,
            ..params(1)
        }));
        assert_ne!(a, c);
    }

    /// `--spill` is not this scenario's business: the dataset is the same
    /// and nothing is written under the spill directory.
    #[test]
    fn spilling_does_not_change_the_table() {
        let dir = std::env::temp_dir().join(format!("asfrac-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dataset = |config: RunConfig| {
            let report = as_fractions(&mut Session::new(config));
            let json = report
                .datasets()
                .map(|d| d.json.clone())
                .collect::<Vec<_>>();
            assert_eq!(json.len(), 1, "one as_fractions.json dataset");
            json
        };
        let config = || RunConfig::default().sites(400).seed(77).days(3);
        let plain = dataset(config());
        let spilled = dataset(config().threads(2).spill(&dir));
        assert_eq!(
            plain, spilled,
            "spilling must not change the exported table"
        );
        assert!(
            !dir.join("as-fractions").exists(),
            "as-fractions must not write spill parts"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Left unset, `--threads` runs the scenario on the session default,
    /// and the dataset is the one thread's.
    #[test]
    fn default_threads_match_one_thread() {
        let dataset = |config: RunConfig| {
            let report = as_fractions(&mut Session::new(config));
            report
                .datasets()
                .map(|d| d.json.clone())
                .collect::<Vec<_>>()
        };
        let config = || RunConfig::default().sites(400).seed(77).days(3);
        assert_eq!(config().threads, None);
        assert_eq!(dataset(config()), dataset(config().threads(1)));
    }

    #[test]
    fn report_shows_a_non_binary_tail() {
        let r = as_fractions_report(&params(1));
        assert!(r.observed_ases > 300, "observed {}", r.observed_ases);
        assert!(!r.rows.is_empty());
        // Rows are ASN-sorted and floored inclusively.
        for w in r.rows.windows(2) {
            assert!(w[0].asn < w[1].asn);
        }
        assert!(r.rows.iter().all(|x| x.share >= MIN_SHARE));
        // The non-binary picture: v4-only ASes, mid-range ASes and
        // near-full adopters all present among the kept population.
        let v4_only = r.rows.iter().filter(|x| x.fraction == 0.0).count();
        let mid = r
            .rows
            .iter()
            .filter(|x| x.fraction > 0.2 && x.fraction < 0.8)
            .count();
        let high = r.rows.iter().filter(|x| x.fraction >= 0.8).count();
        assert!(v4_only > 0 && mid > 0 && high > 0, "{v4_only}/{mid}/{high}");
        // Peak memory is O(ASes): more days, same per-AS state — assert the
        // row population (not the state size) is what days change.
        let longer = as_fractions_report(&AsFractionsParams {
            days: 6,
            ..params(1)
        });
        assert!(longer.observed_ases >= r.observed_ases);
    }
}
