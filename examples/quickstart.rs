//! Quickstart: the 60-second tour of the suite, library-first — build a
//! [`Session`] from a typed [`RunConfig`], look at the non-binary IPv6
//! classification, then run a registered [`Scenario`] the way the `repro`
//! binary does.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ipv6view::core::classify::ClassCounts;
use ipv6view::prelude::{find, registry, RunConfig, Session};

fn main() {
    // 1. A session: 2,000 ranked websites, third-party ecosystem, cloud
    //    hosting, DNS — everything derived from one seed. Crawls, their
    //    analyses and traffic runs are memoized views behind `&self`
    //    accessors, so every scenario pays for each once.
    //    (`RunConfig::default().full()` is the paper's 100k-site scale.)
    let mut session = Session::new(RunConfig::default().sites(2_000).days(30));
    println!(
        "world: {} sites, {} third-party domains, {} DNS names",
        session.world.web.sites.len(),
        session.world.web.third_parties.len(),
        session
            .world
            .zone(session.world.latest_epoch())
            .name_count()
    );

    // 2. Crawl it the way the paper crawls the Tranco list: full page loads
    //    plus five same-site link clicks, Happy Eyeballs for the connection.
    let report = session.latest_crawl();

    // 3. The non-binary view: graded classes, not "has AAAA".
    let counts = ClassCounts::from_report(report);
    println!("\n{} sites crawled ({})", counts.total, report.epoch_label);
    println!(
        "  loading failures : {}",
        counts.nxdomain + counts.other_failure
    );
    println!(
        "  IPv4-only        : {:5}  ({:.1}% of connected)",
        counts.v4_only,
        counts.pct_of_connected(counts.v4_only)
    );
    println!(
        "  IPv6-partial     : {:5}  ({:.1}%)",
        counts.partial,
        counts.pct_of_connected(counts.partial)
    );
    println!(
        "  IPv6-full        : {:5}  ({:.1}%)",
        counts.full,
        counts.pct_of_connected(counts.full)
    );
    println!(
        "\nThe binary metric would call {:.1}% of sites 'IPv6-ready'.",
        counts.binary_adoption_pct()
    );
    println!(
        "The graded view shows only {:.1}% actually work end-to-end on IPv6.",
        counts.pct_of_connected(counts.full)
    );
    // The influence analysis (Fig 7–10) is another memoized view of the
    // same crawl.
    let influence = session.influence();
    println!(
        "{} IPv6-partial sites are held back by {} IPv4-only domains.",
        influence.sites.len(),
        influence.domains.len()
    );

    // 4. Scenarios are first-class values: every paper table and figure is
    //    one. Run Fig 6 (the popularity gradient) from the registry — the
    //    crawl above is reused from the session, and the result is a
    //    structured, serializable report.
    println!(
        "\n{} scenarios registered; running `fig6`:",
        registry().len()
    );
    let fig6 = find("fig6").expect("registered");
    let report = fig6.run(&mut session);
    print!("{}", report.render());
    println!("(the same report serializes: repro fig6 --json)");
}
