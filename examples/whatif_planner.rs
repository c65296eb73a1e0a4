//! What-if planner: the Fig 10 simulation as a planning tool — if you could
//! convince IPv4-only third-party domains to enable IPv6, which ones first,
//! and how far does each step move the web?
//!
//! Uses the library-first API: a [`Session`] owns the world and memoizes
//! the crawl and its influence analysis, so any registered scenario run
//! afterwards reuses both.
//!
//! ```sh
//! cargo run --release --example whatif_planner
//! ```

use ipv6view::core::whatif::WhatIfCurve;
use ipv6view::prelude::{RunConfig, Session};

fn main() {
    let session = Session::new(RunConfig::default().sites(2_000).days(30));
    let influence = session.influence();
    let curve = WhatIfCurve::compute(influence);

    println!(
        "{} IPv6-partial sites depend on {} IPv4-only domains\n",
        influence.sites.len(),
        influence.domains.len()
    );

    println!("priority list (descending span):");
    let mut cumulative_prev = 0usize;
    for (k, d) in influence.domains.iter().take(12).enumerate() {
        let cum = curve.became_full[k];
        println!(
            "  {:>2}. {:<30} span {:>5}  → +{:<4} sites become IPv6-full (cum {:.1}%)",
            k + 1,
            d.domain.to_string(),
            d.span,
            cum - cumulative_prev,
            100.0 * curve.fraction_after(k + 1)
        );
        cumulative_prev = cum;
    }

    println!("\nmilestones:");
    for target in [0.25, 0.5, 0.75, 1.0] {
        let k = (1..=curve.became_full.len())
            .find(|&k| curve.fraction_after(k) >= target)
            .unwrap_or(curve.became_full.len());
        println!(
            "  {:>4.0}% of partial sites fixed after {:>5} domains ({:.1}% of all IPv4-only domains)",
            100.0 * target,
            k,
            100.0 * k as f64 / influence.domains.len() as f64
        );
    }
    println!(
        "\n(the paper's point: a few hundred high-span domains give the first 25%,\n\
     but universal readiness needs the entire long tail)"
    );
}
