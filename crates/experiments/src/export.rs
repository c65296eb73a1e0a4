//! JSON dataset export — the analogue of the paper's published datasets
//! (`https://ant.isi.edu/datasets/ipv6`): server-side and cloud data are
//! exportable; client-side flow logs are exported only in anonymized form,
//! mirroring the paper's IRB constraint.
//!
//! Scenario-owned datasets are not rebuilt here: every registered
//! [`Scenario`](crate::Scenario) with an `export_report` contributes the
//! [`Dataset`](crate::report::Dataset) elements of that report, so the
//! export path consumes the same [`Report`](crate::Report) values that
//! `repro <scenario> --json` emits — one code path, shrunk parameters.

use crate::scenario::registry;
use crate::session::Session;
use flowmon::{AnonymizingExporter, CollectSink, ScopeFamilyAgg};
use iputil::anon::{Anonymizer, AnonymizerConfig};
use ipv6view_core::classify::{classify_site, ClassCounts};
use ipv6view_core::client::analyze_agg;
use ipv6view_core::cloud::{org_readiness, service_adoption};
use serde::Serialize;
use std::path::Path;

#[derive(Serialize)]
struct SiteRow {
    rank: usize,
    domain: String,
    class: String,
    resources: usize,
    v4only_resources: usize,
}

/// Write all exportable datasets as JSON files under `out_dir`.
pub fn export_all(session: &mut Session, out_dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    // Serialize straight into a buffered file: no dataset is ever held as
    // one in-memory JSON string. Bytes are identical to the old
    // string-then-write path (the serde_json shim's writer tests pin it).
    let write = |name: &str, value: &dyn erased_ser::Ser| -> std::io::Result<()> {
        use std::io::Write as _;
        let path = out_dir.join(name);
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        value.write_json(&mut w)?;
        w.flush()?;
        obs::info!("[export] wrote {}", path.display());
        Ok(())
    };

    // 1. Per-site graded classification (the paper's server-side dataset).
    let report = session.latest_crawl();
    let sites: Vec<SiteRow> = report
        .sites
        .iter()
        .map(|s| {
            let (resources, v4only) = match &s.outcome {
                Ok(ok) => {
                    let loaded = ok.resources.iter().filter(|r| r.has_a || r.has_aaaa);
                    let v4 = loaded.clone().filter(|r| !r.has_aaaa).count();
                    (ok.resources.len(), v4)
                }
                Err(_) => (0, 0),
            };
            SiteRow {
                rank: s.rank,
                domain: s.domain.to_string(),
                class: format!("{:?}", classify_site(s)),
                resources,
                v4only_resources: v4only,
            }
        })
        .collect();
    write("sites.json", &sites)?;
    write("class_counts.json", &ClassCounts::from_report(report))?;

    // 2. Influence metrics (span / median contribution).
    write("influence_domains.json", &session.influence().domains)?;

    // 3. Cloud datasets.
    let fqdns = session.hosted();
    write("cloud_org_readiness.json", &org_readiness(fqdns))?;
    write(
        "cloud_service_adoption.json",
        &service_adoption(fqdns, &cloudmodel::catalog::ServiceCatalog::paper()),
    )?;

    // 4. Scenario-owned datasets, registry-driven: each scenario's
    //    export-scale Report carries pre-serialized Dataset elements
    //    (deterministic: same seed ⇒ byte-identical files). Currently:
    //    transition_report.json, cgn_sweep.json, as_fractions.json.
    for scenario in registry() {
        let Some(rep) = scenario.export_report(session) else {
            continue;
        };
        for dataset in rep.datasets() {
            let path = out_dir.join(&dataset.name);
            std::fs::write(&path, &dataset.json)?;
            obs::info!("[export] wrote {}", path.display());
        }
    }

    // 5. Client-side: per-residence aggregates plus ANONYMIZED daily logs
    //    (CryptoPAN'd addresses, like the paper's upload pipeline; the raw
    //    logs are deliberately not exported). The anonymized logs are the
    //    one dataset that genuinely needs the records, so each residence
    //    streams into a record buffer beside its Table 1 aggregate and is
    //    analysed and written before the next: peak memory is one
    //    residence's records, with or without `--spill`.
    let exporter = AnonymizingExporter::new(Anonymizer::new(
        *b"dataset-release!",
        AnonymizerConfig::paper(),
    ));
    let cfg = session.traffic_config();
    let mut analyses = Vec::new();
    for (i, profile) in trafficgen::paper_residences().into_iter().enumerate() {
        let mut sink = (CollectSink::new(), ScopeFamilyAgg::new(cfg.num_days));
        let summary = trafficgen::synthesize_residence_into(
            &session.world,
            profile,
            &cfg,
            i as u64,
            &mut sink,
        );
        let (records, agg) = sink;
        analyses.push(analyze_agg(summary.profile.key, summary.scale, &agg));
        let logs = exporter.export(&records.records);
        let sample: Vec<_> = logs
            .iter()
            .flat_map(|l| l.records.iter())
            .take(10_000)
            .collect();
        write(
            &format!("residence_{}_flows_anonymized.json", summary.profile.key),
            &sample,
        )?;
    }
    write("residence_analyses.json", &analyses)?;
    Ok(())
}

/// Minimal object-safe serialization shim so `write` can take any
/// `Serialize` without generics-in-closures gymnastics.
mod erased_ser {
    pub trait Ser {
        /// Pretty-print into `w` (buffered by the caller); byte-identical
        /// to serializing to a string first.
        fn write_json(&self, w: &mut dyn std::io::Write) -> std::io::Result<()>;
    }
    impl<T: serde::Serialize> Ser for T {
        fn write_json(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
            serde_json::to_writer_pretty(w, self).map_err(|e| std::io::Error::other(format!("{e}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{RunConfig, Session};

    #[test]
    fn exports_valid_json() {
        let mut session = Session::new(RunConfig::default().sites(500).seed(77).days(10));
        let dir = std::env::temp_dir().join("ipv6view-export-test");
        let _ = std::fs::remove_dir_all(&dir);
        export_all(&mut session, &dir).expect("export succeeds");
        // Every file parses as JSON and the headline files are non-trivial.
        let mut found = 0;
        for entry in std::fs::read_dir(&dir).expect("dir exists") {
            let path = entry.expect("entry").path();
            let text = std::fs::read_to_string(&path).expect("readable");
            let value: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
            if path.file_name().unwrap() == "sites.json" {
                assert_eq!(value.as_array().unwrap().len(), 500);
            }
            found += 1;
        }
        assert!(found >= 8, "expected at least 8 dataset files, got {found}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `--spill` leaves every exported file unchanged and writes no parts.
    #[test]
    fn spilled_export_is_byte_identical() {
        let base =
            std::env::temp_dir().join(format!("ipv6view-export-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (dir_a, dir_b, spill) = (base.join("a"), base.join("b"), base.join("spill"));
        let cfg = || RunConfig::default().sites(200).seed(77).days(2);

        let mut plain = Session::new(cfg());
        export_all(&mut plain, &dir_a).expect("in-memory export");
        let mut spilled = Session::new(cfg().threads(3).spill(&spill));
        export_all(&mut spilled, &dir_b).expect("spilled export");

        let names = |dir: &std::path::Path| -> Vec<String> {
            let mut v: Vec<String> = std::fs::read_dir(dir)
                .expect("dir exists")
                .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
                .collect();
            v.sort();
            v
        };
        let files = names(&dir_a);
        assert_eq!(files, names(&dir_b), "spill must not change the file set");
        for name in &files {
            let a = std::fs::read(dir_a.join(name)).expect("readable");
            let b = std::fs::read(dir_b.join(name)).expect("readable");
            assert_eq!(a, b, "{name} differs between in-memory and spilled export");
        }
        assert!(!spill.exists(), "export must not write under the spill dir");
        let _ = std::fs::remove_dir_all(&base);
    }
}
