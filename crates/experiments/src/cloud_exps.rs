//! Cloud scenarios: Fig 11, Fig 12, Table 2, Table 3 and the policy
//! ablation.

use crate::report::Report;
use crate::session::Session;
use cloudmodel::catalog::{paper_orgs, ServiceCatalog};
use ipv6view_core::cloud::{
    default_groups, ease_adoption_correlation, multicloud_tenant_count, org_readiness,
    pairwise_comparison, service_adoption,
};
use ipv6view_core::report::TextTable;

/// Fig 11: readiness breakdown of the top 15 clouds.
pub fn fig11(s: &mut Session) -> Report {
    let mut r = Report::new("fig11");
    r.heading("Fig 11 — IPv6 readiness of the top 15 clouds");
    let hosted = s.hosted();
    r.line(format!(
        "{} unique FQDNs attributed (paper: 265,248 at 100k scale)",
        hosted.len()
    ));
    let orgs = org_readiness(hosted);
    let catalog = paper_orgs();
    let mut t = TextTable::new(vec![
        "Cloud",
        "domains",
        "v4-only %",
        "v6-full %",
        "v6-only %",
        "paper v6-full %",
    ]);
    for paper_org in &catalog {
        let Some(o) = orgs.iter().find(|o| o.org == paper_org.display) else {
            continue;
        };
        t.row(vec![
            o.org.clone(),
            o.total.to_string(),
            format!("{:.1}", o.pct(o.v4_only)),
            format!("{:.1}", o.pct(o.v6_full)),
            format!("{:.1}", o.pct(o.v6_only)),
            format!("{:.1}", paper_org.paper_pct_v6_full),
        ]);
    }
    r.table(t);
    for key in ["Cloudflare, Inc.", "Amazon.com, Inc.", "Google LLC"] {
        let paper_org = catalog
            .iter()
            .find(|o| o.display == key)
            .expect("in catalog");
        if let Some(o) = orgs.iter().find(|o| o.org == key) {
            r.compare(
                format!("{key} v6-full %"),
                paper_org.paper_pct_v6_full,
                o.pct(o.v6_full),
            );
        }
    }
    r
}

/// Table 3 (appendix F): full per-cloud breakdown including the overall row.
pub fn table3(s: &mut Session) -> Report {
    let mut r = Report::new("table3");
    r.heading("Table 3 — per-cloud domain counts (appendix F)");
    let scale = s.site_scale();
    let hosted = s.hosted();
    let orgs = org_readiness(hosted);
    let catalog = paper_orgs();
    let (mut tot, mut v4, mut full, mut v6o) = (0usize, 0usize, 0usize, 0usize);
    for o in &orgs {
        tot += o.total;
        v4 += o.v4_only;
        full += o.v6_full;
        v6o += o.v6_only;
    }
    let mut t = TextTable::new(vec![
        "Cloud",
        "meas domains",
        "paper (scaled)",
        "v4only %",
        "v6full %",
        "v6only %",
    ]);
    t.row(vec![
        "Overall".to_string(),
        tot.to_string(),
        format!("{:.0}", 272_964.0 * scale),
        format!("{:.1}", 100.0 * v4 as f64 / tot as f64),
        format!("{:.1}", 100.0 * full as f64 / tot as f64),
        format!("{:.1}", 100.0 * v6o as f64 / tot as f64),
    ]);
    for paper_org in &catalog {
        let Some(o) = orgs.iter().find(|o| o.org == paper_org.display) else {
            continue;
        };
        t.row(vec![
            o.org.clone(),
            o.total.to_string(),
            format!("{:.0}", paper_org.paper_domains as f64 * scale),
            format!("{:.1}", o.pct(o.v4_only)),
            format!("{:.1}", o.pct(o.v6_full)),
            format!("{:.1}", o.pct(o.v6_only)),
        ]);
    }
    r.table(t);
    r.compare("overall v6-full %", 41.9, 100.0 * full as f64 / tot as f64);
    r.compare("overall v6-only %", 1.7, 100.0 * v6o as f64 / tot as f64);
    r
}

/// Fig 12: pairwise Wilcoxon comparison of clouds over multi-cloud tenants.
pub fn fig12(s: &mut Session) -> Report {
    let mut r = Report::new("fig12");
    r.heading("Fig 12 — pairwise cloud comparison (Wilcoxon, Holm-Bonferroni)");
    let scale = s.site_scale();
    let hosted = s.hosted();
    let groups = default_groups();
    let tenants = multicloud_tenant_count(hosted, &s.world.psl, &groups);
    r.compare(
        "multi-cloud tenants (scaled)",
        21_314.0 * scale,
        tenants as f64,
    );
    let m = pairwise_comparison(hosted, &s.world.psl, &groups, 2);
    r.line(format!(
        "{} comparable pairs, {} with too few shared tenants (paper: 67 of 78)",
        m.cells.len(),
        m.insufficient_pairs
    ));
    r.line(format!(
        "group ranking (most IPv6-leading first): {}",
        m.groups.join(" > ")
    ));
    let mut t = TextTable::new(vec![
        "cloud A", "cloud B", "n", "effect r", "p (raw)", "signif",
    ]);
    let mut cells = m.cells.clone();
    cells.sort_by(|a, b| b.effect.abs().partial_cmp(&a.effect.abs()).expect("finite"));
    for c in cells.iter().take(20) {
        t.row(vec![
            c.a.clone(),
            c.b.clone(),
            c.n.to_string(),
            format!("{:+.2}", c.effect),
            format!("{:.4}", c.p_raw),
            if c.significant { "*" } else { "" }.to_string(),
        ]);
    }
    r.table(t);
    r.line(
        "(paper: Cloudflare/Akamai groups lead with r ≈ +0.9 vs laggards; \
         Google/Amazon/Microsoft mid-field; DigitalOcean & co at the bottom)",
    );
    r
}

/// Table 2: service-level adoption via CNAME identification.
pub fn table2(s: &mut Session) -> Report {
    let mut r = Report::new("table2");
    r.heading("Table 2 — IPv6 adoption by cloud service");
    let hosted = s.hosted();
    let catalog = ServiceCatalog::paper();
    let services = service_adoption(hosted, &catalog);
    let mut t = TextTable::new(vec![
        "Provider", "Service", "Policy", "ready", "total", "meas %", "paper %",
    ]);
    for svc in &services {
        t.row(vec![
            svc.provider.clone(),
            svc.service.clone(),
            svc.policy.label().to_string(),
            svc.ready.to_string(),
            svc.total.to_string(),
            format!("{:.1}", 100.0 * svc.adoption()),
            format!("{:.1}", 100.0 * svc.paper_adoption),
        ]);
    }
    r.table(t);
    if let Some(rho) = ease_adoption_correlation(&services) {
        r.compare("ease↔adoption Spearman ρ (paper: positive)", 0.8, rho);
    }
    for (service, paper_pct) in [("Amazon S3", 0.4), ("Amazon CloudFront CDN", 71.1)] {
        if let Some(svc) = services.iter().find(|x| x.service == service) {
            r.compare(
                format!("{service} adoption %"),
                paper_pct,
                100.0 * svc.adoption(),
            );
        }
    }
    r
}

/// Ablation: force default-on everywhere (§5.3's recommendation).
pub fn ablation_policy(s: &mut Session) -> Report {
    let mut r = Report::new("ablation-policy");
    r.heading("Ablation — §5.3 recommendation: default-on for every service");
    // Re-measure Table 2 from the real crawl, then model the counterfactual:
    // every service's tenants adopt at the default-on empirical rate (the
    // rate measured for services that are default-on today).
    let hosted = s.hosted();
    let catalog = ServiceCatalog::paper();
    let services = service_adoption(hosted, &catalog);
    let default_on_rates: Vec<f64> = services
        .iter()
        .filter(|svc| {
            matches!(
                svc.policy,
                cloudmodel::Ipv6Policy::AlwaysOn
                    | cloudmodel::Ipv6Policy::DefaultOn
                    | cloudmodel::Ipv6Policy::DefaultOnOptOut
            )
        })
        .map(|svc| svc.adoption())
        .collect();
    let default_on_mean = netstats::mean(&default_on_rates).unwrap_or(0.7);
    let current_ready: usize = services.iter().map(|svc| svc.ready).sum();
    let total: usize = services.iter().map(|svc| svc.total).sum();
    let counterfactual_ready: f64 = services
        .iter()
        .map(|svc| {
            let rate = svc.adoption().max(default_on_mean);
            rate * svc.total as f64
        })
        .sum();
    r.line(format!("service-attached domains:         {total}"));
    r.line(format!(
        "IPv6-ready today:                 {current_ready} ({:.1}%)",
        100.0 * current_ready as f64 / total as f64
    ));
    r.line(format!(
        "IPv6-ready if all default-on:     {counterfactual_ready:.0} ({:.1}%)",
        100.0 * counterfactual_ready / total as f64
    ));
    r.line(format!(
        "(mean adoption across default-on services today: {:.1}% — the paper argues\n\
         opt-in and code-change policies cap adoption at single digits)",
        100.0 * default_on_mean
    ));
    r
}
