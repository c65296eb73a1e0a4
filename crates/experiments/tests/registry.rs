//! Tier-1 registry sweep: every registered scenario must run at tiny scale
//! and produce a `Report` whose JSON is byte-identical at any `threads`
//! setting — crawls and synthesis alike — the determinism contract the
//! whole streaming pipeline is built on, asserted scenario-by-scenario.
//!
//! One sweep runs metered, and the obs plane is process-global: every test
//! here serializes on one lock so no other session's spans reach it.

use experiments::{find, registry, RunConfig, Session};
use std::sync::{Mutex, MutexGuard};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Run every registered scenario against one session (the `repro all`
/// shape: caches shared), returning `(name, report JSON)` pairs.
fn run_registry(config: RunConfig) -> Vec<(String, String)> {
    let mut session = Session::new(config);
    registry()
        .iter()
        .map(|scenario| {
            let report = scenario.run(&mut session);
            assert_eq!(
                report.scenario,
                scenario.name(),
                "report must carry its scenario name"
            );
            assert!(
                !report.elements.is_empty(),
                "{} produced an empty report",
                scenario.name()
            );
            assert!(
                !report.render().is_empty(),
                "{} rendered to nothing",
                scenario.name()
            );
            (scenario.name().to_string(), report.to_json())
        })
        .collect()
}

/// The sequential reference layout: one thread, whatever the host.
fn tiny() -> RunConfig {
    RunConfig::default().sites(200).seed(77).days(2).threads(1)
}

#[test]
fn every_scenario_runs_and_is_thread_invariant() {
    let _guard = locked();
    let base = run_registry(tiny());
    assert!(base.len() >= 30, "registry shrank to {}", base.len());
    let fanned = run_registry(tiny().threads(3));
    for ((name_a, json_a), (name_b, json_b)) in base.iter().zip(&fanned) {
        assert_eq!(name_a, name_b);
        assert_eq!(
            json_a, json_b,
            "{name_a}: report JSON must be byte-identical across thread settings"
        );
    }
}

/// `--spill` never changes an answer: every scenario's Report JSON must be
/// byte-identical with it on and off, even combined with thread fan-out.
/// `million-subs`, the one scenario that persists its stream, builds its
/// report from the digest-verified replay of its day-parts, and it is the
/// only thing written under the spill directory.
#[test]
fn every_scenario_is_spill_invariant() {
    let _guard = locked();
    let dir = std::env::temp_dir().join(format!("registry-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let in_memory = run_registry(tiny());
    let spilled = run_registry(tiny().threads(3).spill(&dir));
    for ((name_a, json_a), (name_b, json_b)) in in_memory.iter().zip(&spilled) {
        assert_eq!(name_a, name_b);
        assert_eq!(
            json_a, json_b,
            "{name_a}: report JSON must be byte-identical with spilling on vs off"
        );
    }
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("spill dir exists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(written, ["million-subs"], "only million-subs spills");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reports_serialize_to_valid_structured_json() {
    let _guard = locked();
    let mut session = Session::new(tiny());
    // A table-heavy, a CDF-heavy and a dataset-bearing scenario cover every
    // element kind.
    for name in ["table1", "fig3", "cgn-sweep"] {
        let scenario = find(name).expect("registered");
        let report = scenario.run(&mut session);
        let value: serde_json::Value = serde_json::from_str(&report.to_json()).expect("valid JSON");
        assert_eq!(
            value.get("scenario").and_then(|v| v.as_str()),
            Some(name),
            "{name}"
        );
        let elements = value
            .get("elements")
            .and_then(|v| v.as_array())
            .expect("elements array");
        assert!(!elements.is_empty());
    }
    // Dataset elements carry valid, non-trivial JSON bodies.
    let sweep = find("cgn-sweep").expect("registered").run(&mut session);
    let datasets: Vec<_> = sweep.datasets().collect();
    assert_eq!(datasets.len(), 1);
    let rows: serde_json::Value =
        serde_json::from_str(&datasets[0].json).expect("dataset JSON parses");
    assert!(!rows.as_array().expect("rows").is_empty());
}

#[test]
fn export_reports_cover_the_published_datasets() {
    let _guard = locked();
    let mut session = Session::new(tiny());
    let mut names = Vec::new();
    for scenario in registry() {
        if let Some(report) = scenario.export_report(&mut session) {
            for d in report.datasets() {
                names.push(d.name.clone());
            }
        }
    }
    assert_eq!(
        names,
        [
            "transition_report.json",
            "cgn_sweep.json",
            "as_fractions.json"
        ],
        "scenario-owned export datasets changed"
    );
}

/// Each session view is built once per session: over the whole registry on
/// one metered session, the span of each view closes exactly once in total,
/// under whichever scenario first read it, and the crawl's once per epoch.
#[test]
fn every_session_view_is_built_once() {
    let _guard = locked();
    let mut session = Session::new(tiny().metrics(true));
    for scenario in registry() {
        scenario.run(&mut session);
    }
    let metrics = session.metrics();
    obs::set_enabled(false);
    let closes = |view: &str| -> u64 {
        let suffix = format!("/{view}");
        metrics
            .spans
            .iter()
            .filter(|s| s.path == view || s.path.ends_with(&suffix))
            .map(|s| s.count)
            .sum()
    };
    for view in [
        "hosted",
        "influence",
        "crawl-mainpage",
        "streaming",
        "hourly",
    ] {
        assert_eq!(closes(view), 1, "span {view} must close once per session");
    }
    let epochs = session.world.web.epochs.len() as u64;
    assert_eq!(closes("crawl"), epochs, "one crawl span per epoch");
}
