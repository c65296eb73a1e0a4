//! Client-side scenarios: Table 1, Fig 1–4 and appendix Figs 13–17.
//!
//! Everything here reads the streaming views of [`Session`] — one
//! synthesis pass with composite aggregator sinks feeds every figure, and
//! no flow record is ever materialized on this path.

use crate::report::Report;
use crate::session::Session;
use ipv6view_core::client::{common_ases, daily_fraction_series, Metric};
use ipv6view_core::report::{render_box_row, render_cdf, TextTable};
use ipv6view_core::seasonal;
use netstats::{BoxplotStats, Ecdf};

/// Table 1: per-residence traffic volume, flow counts and IPv6 fractions.
pub fn table1(s: &mut Session) -> Report {
    let mut r = Report::new("table1");
    r.heading("Table 1 — per-residence IPv6 traffic (external & internal)");
    let profiles = trafficgen::paper_residences();
    let stats = s.client_analyses();
    // Paper volumes cover ~273 days; scale them to the simulated duration.
    let day_scale = s.config.days as f64 / 273.0;
    let mut t = TextTable::new(vec![
        "Res",
        "Scope",
        "GB (meas)",
        "GB (paper)",
        "v6B meas",
        "v6B paper",
        "Flows M",
        "v6F meas",
        "v6F paper",
        "daily μ(σ)",
    ]);
    for (a, p) in stats.iter().zip(&profiles) {
        t.row(vec![
            p.key.to_string(),
            "External".into(),
            format!("{:.0}", a.external.total_gb),
            format!("{:.0}", p.paper_ext_gb * day_scale),
            format!("{:.3}", a.external.v6_byte_fraction),
            format!("{:.3}", p.paper_ext_v6_bytes),
            format!("{:.1}", a.external.flows_m),
            format!("{:.3}", a.external.v6_flow_fraction),
            format!("{:.3}", p.paper_ext_v6_flows),
            format!(
                "{:.3} ({:.3})",
                a.external.daily_byte_mean, a.external.daily_byte_sd
            ),
        ]);
        t.row(vec![
            String::new(),
            "Internal".into(),
            format!("{:.2}", a.internal.total_gb),
            format!("{:.2}", p.paper_int_gb * day_scale),
            format!("{:.3}", a.internal.v6_byte_fraction),
            format!("{:.3}", p.paper_int_v6_bytes),
            format!("{:.2}", a.internal.flows_m),
            format!("{:.3}", a.internal.v6_flow_fraction),
            "-".into(),
            format!(
                "{:.3} ({:.3})",
                a.internal.daily_byte_mean, a.internal.daily_byte_sd
            ),
        ]);
    }
    r.table(t);
    for (a, p) in stats.iter().zip(&profiles) {
        r.compare(
            format!("Residence {} external IPv6 byte fraction", a.key),
            p.paper_ext_v6_bytes,
            a.external.v6_byte_fraction,
        );
    }
    // Flow-shape sketches from the same streaming pass (netstats
    // LogHistogram: ≈9% relative quantile error, O(1) memory per
    // residence).
    for (key, sketch) in s.flow_sketches() {
        let q = |h: &netstats::LogHistogram, p: f64| h.quantile(p).unwrap_or(0.0);
        r.line(format!(
            "residence {key}: flow size p50 {:.0} B / p99 {:.0} B, duration p50 {:.0}s / p99 {:.0}s",
            q(&sketch.size_bytes, 0.5),
            q(&sketch.size_bytes, 0.99),
            q(&sketch.duration_us, 0.5) / 1e6,
            q(&sketch.duration_us, 0.99) / 1e6,
        ));
    }
    r
}

/// Fig 1: CDFs of daily IPv6 byte/flow fractions at residences A, B, C.
pub fn fig1(s: &mut Session) -> Report {
    let mut r = Report::new("fig1");
    r.heading("Fig 1 — daily IPv6 fraction CDFs (residences A, B, C)");
    let stats = s.client_analyses();
    for key in ['A', 'B', 'C'] {
        let a = stats.iter().find(|a| a.key == key).expect("residence");
        let ext_b: Vec<f64> = a.daily.iter().filter_map(|d| d.ext_bytes).collect();
        let ext_f: Vec<f64> = a.daily.iter().filter_map(|d| d.ext_flows).collect();
        let int_b: Vec<f64> = a.daily.iter().filter_map(|d| d.int_bytes).collect();
        r.raw(render_cdf(
            &format!("{key} external bytes"),
            &Ecdf::new(ext_b),
            5,
        ));
        r.raw(render_cdf(
            &format!("{key} external flows"),
            &Ecdf::new(ext_f),
            5,
        ));
        r.raw(render_cdf(
            &format!("{key} internal bytes"),
            &Ecdf::new(int_b),
            5,
        ));
    }
    r.line(
        "(paper: byte-fraction CDFs rise near-linearly with heavy-hitter tails;\n\
         flow-fraction CDFs rise sharply — flows are stabler than bytes)",
    );
    // Quantify the paper's flows-stabler-than-bytes claim.
    let stats = s.client_analyses();
    for key in ['A', 'B', 'C'] {
        let a = stats.iter().find(|a| a.key == key).expect("residence");
        r.line(format!(
            "residence {key}: daily byte sd {:.3} vs daily flow sd {:.3}",
            a.external.daily_byte_sd, a.external.daily_flow_sd
        ));
    }
    r
}

/// Fig 2: MSTL of the hourly IPv6 byte fraction at residence A (March 2025).
pub fn fig2(s: &mut Session) -> Report {
    let mut r = Report::new("fig2");
    r.heading("Fig 2 — MSTL of hourly IPv6 byte fraction, residence A");
    mstl_hourly(&mut r, s, 'A', Metric::Bytes);
    r
}

/// Fig 13 (appendix): MSTL of the hourly IPv6 *flow* fraction, residence A.
pub fn fig13(s: &mut Session) -> Report {
    let mut r = Report::new("fig13");
    r.heading("Fig 13 — MSTL of hourly IPv6 flow fraction, residence A");
    mstl_hourly(&mut r, s, 'A', Metric::Flows);
    r
}

fn mstl_hourly(r: &mut Report, s: &Session, key: char, metric: Metric) {
    let agg = s
        .hourly_aggs()
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, agg)| agg)
        .expect("residence");
    let series = agg.series(metric);
    match seasonal::decompose_hourly(&series) {
        Ok(fit) => {
            let strengths = seasonal::seasonal_strengths(&fit);
            for st in &strengths {
                r.line(format!(
                    "period {:>3}h: strength {:.2}, mean-cycle amplitude {:.3}",
                    st.period, st.strength, st.amplitude
                ));
            }
            if let Some(peak) = seasonal::daily_peak_hour(&fit) {
                r.line(format!(
                    "daily component peaks at hour {peak} (paper: evening rise to midnight)"
                ));
            }
            let trend_mean = fit.trend.iter().sum::<f64>() / fit.trend.len() as f64;
            r.line(format!(
                "trend mean {:.3} over {} hours",
                trend_mean,
                fit.trend.len()
            ));
            let spark: String = fit
                .seasonal(24)
                .expect("daily seasonal")
                .iter()
                .take(48)
                .map(|v| {
                    let blocks = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
                    let idx = (((v + 0.3) / 0.6) * 7.0).clamp(0.0, 7.0) as usize;
                    blocks[idx]
                })
                .collect();
            r.line(format!("daily component, first 48h: {spark}"));
        }
        Err(e) => {
            r.line(format!("decomposition failed: {e}"));
        }
    }
}

/// Fig 14/15 (appendix): MSTL of daily byte fractions at residences B and C.
pub fn fig14(s: &mut Session) -> Report {
    let mut r = Report::new("fig14");
    r.heading("Fig 14 — MSTL of daily IPv6 byte fraction, residence B");
    mstl_daily(&mut r, s, 'B');
    r
}

/// Fig 15 (appendix).
pub fn fig15(s: &mut Session) -> Report {
    let mut r = Report::new("fig15");
    r.heading("Fig 15 — MSTL of daily IPv6 byte fraction, residence C");
    mstl_daily(&mut r, s, 'C');
    r
}

fn mstl_daily(r: &mut Report, s: &Session, key: char) {
    let stats = s.client_analyses();
    let a = stats.iter().find(|a| a.key == key).expect("residence");
    let series = daily_fraction_series(a);
    match seasonal::decompose_daily(&series) {
        Ok(fit) => {
            let strengths = seasonal::seasonal_strengths(&fit);
            for st in &strengths {
                r.line(format!(
                    "period {:>3}d: strength {:.2}, mean-cycle amplitude {:.3}",
                    st.period, st.strength, st.amplitude
                ));
            }
            let trend_min = fit.trend.iter().cloned().fold(f64::INFINITY, f64::min);
            let trend_max = fit.trend.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            r.line(format!(
                "trend range [{trend_min:.3}, {trend_max:.3}] over {} days \
                 (paper: no long-term direction)",
                fit.trend.len()
            ));
        }
        Err(e) => {
            r.line(format!("decomposition failed: {e}"));
        }
    }
}

/// Fig 3: CDF of per-AS IPv6 byte fractions for common ASes.
pub fn fig3(s: &mut Session) -> Report {
    let mut r = Report::new("fig3");
    r.heading("Fig 3 — CDF of per-AS IPv6 byte fractions (ASes at ≥3 residences)");
    let fr = s.as_rows();
    let common = common_ases(fr, 3);
    r.line(format!(
        "{} ASes observed at 3+ residences (paper: 35)",
        common.len()
    ));
    for key in ['A', 'B', 'C', 'D', 'E'] {
        let fractions: Vec<f64> = fr
            .iter()
            .filter(|f| f.residence == key && common.iter().any(|(asn, ..)| *asn == f.asn))
            .map(|f| f.fraction)
            .collect();
        if fractions.is_empty() {
            continue;
        }
        let zero_share =
            fractions.iter().filter(|&&f| f == 0.0).count() as f64 / fractions.len() as f64;
        let max = fractions.iter().cloned().fold(0.0f64, f64::max);
        r.raw(render_cdf(
            &format!("residence {key}"),
            &Ecdf::new(fractions),
            5,
        ));
        r.line(format!(
            "    v4-only ASes: {:.0}%  max AS fraction: {max:.2}",
            zero_share * 100.0
        ));
    }
    r.line("(paper: ≥25% of ASes are IPv4-only everywhere; residence C capped near 0.4)");
    r
}

/// Fig 4: per-category AS boxplots.
pub fn fig4(s: &mut Session) -> Report {
    let mut r = Report::new("fig4");
    r.heading("Fig 4 — IPv6 byte fraction by AS, grouped by category");
    let fr = s.as_rows();
    let common = common_ases(fr, 3);
    for cat in bgpsim::AsCategory::all() {
        let mut rows: Vec<(String, BoxplotStats)> = common
            .iter()
            .filter(|(_, _, c, _)| *c == cat)
            .filter_map(|(asn, name, _, fracs)| {
                BoxplotStats::of(fracs).map(|b| (format!("{name} ({asn})"), b))
            })
            .collect();
        if rows.is_empty() {
            continue;
        }
        rows.sort_by(|a, b| b.1.median.partial_cmp(&a.1.median).expect("finite"));
        r.line(format!("-- {} --", cat.label()));
        for (label, b) in rows {
            r.raw(render_box_row(&label, &b, 0.0, 1.0));
        }
    }
    r.line("(paper: ISP medians ≤ 0.2; Web/Social medians > 0.9 except ByteDance)");
    r
}

/// Fig 16 (appendix): daily fraction CDFs at residences D and E.
pub fn fig16(s: &mut Session) -> Report {
    let mut r = Report::new("fig16");
    r.heading("Fig 16 — daily IPv6 fraction CDFs (residences D, E)");
    let stats = s.client_analyses();
    for key in ['D', 'E'] {
        let a = stats.iter().find(|a| a.key == key).expect("residence");
        let ext_b: Vec<f64> = a.daily.iter().filter_map(|d| d.ext_bytes).collect();
        let ext_f: Vec<f64> = a.daily.iter().filter_map(|d| d.ext_flows).collect();
        r.raw(render_cdf(
            &format!("{key} external bytes"),
            &Ecdf::new(ext_b),
            5,
        ));
        r.raw(render_cdf(
            &format!("{key} external flows"),
            &Ecdf::new(ext_f),
            5,
        ));
        r.line(format!(
            "residence {key}: overall {:.3} vs daily mean {:.3} (sd {:.3}) — \
             paper E: 0.066 overall vs 0.459 daily mean",
            a.external.v6_byte_fraction, a.external.daily_byte_mean, a.external.daily_byte_sd
        ));
    }
    r
}

/// Fig 17 (appendix): per-domain IPv6 fraction boxplots via reverse DNS.
pub fn fig17(s: &mut Session) -> Report {
    let mut r = Report::new("fig17");
    r.heading("Fig 17 — per-domain (eTLD+1) IPv6 fractions via reverse DNS");
    let domains = s.domain_rows();
    r.line(format!(
        "{} domains at 3+ residences above the volume floor",
        domains.len()
    ));
    let mut rows: Vec<(String, BoxplotStats)> = domains
        .iter()
        .filter_map(|(d, fracs)| BoxplotStats::of(fracs).map(|b| (d.to_string(), b)))
        .collect();
    rows.sort_by(|a, b| a.1.median.partial_cmp(&b.1.median).expect("finite"));
    for (label, b) in &rows {
        r.raw(render_box_row(label, b, 0.0, 1.0));
    }
    let zero: Vec<&str> = rows
        .iter()
        .filter(|(_, b)| b.median == 0.0 && b.q3 == 0.0)
        .map(|(l, _)| l.as_str())
        .collect();
    r.line(format!(
        "IPv4-only laggards: {} (paper names zoom.us, github.com, usc.edu, justin.tv, wp.com)",
        zero.join(", ")
    ));
    r
}
