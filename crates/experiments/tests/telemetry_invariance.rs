//! Telemetry-plane determinism, asserted at the experiment layer:
//!
//! * the layout-invariant metrics fingerprint (span close counts, counters,
//!   gauges, histogram shapes — no nanoseconds) is identical at one and at
//!   three `threads` for the **whole registry**, crawls included,
//! * the fault-plane stress scenarios produce the same per-cause casualty
//!   counters at any layout,
//! * enabling the plane never perturbs a scenario's report (zero-overhead
//!   contract: instrumentation observes, it does not participate).
//!
//! The obs plane is process-global, so every test serializes on one lock
//! and resets the plane before recording.

use experiments::{find, registry, RunConfig, Session};
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// The sequential reference layout: one thread, whatever the host.
fn tiny() -> RunConfig {
    RunConfig::default()
        .sites(200)
        .seed(77)
        .days(2)
        .threads(1)
        .metrics(true)
}

/// Run every registered scenario against one metered session (the
/// `repro all --metrics` shape) and return the layout-invariant fingerprint.
fn registry_fingerprint(config: RunConfig) -> String {
    let mut session = Session::new(config);
    for scenario in registry() {
        scenario.run(&mut session);
    }
    let fp = session.metrics().counts_fingerprint();
    obs::set_enabled(false);
    fp
}

#[test]
fn registry_metrics_fingerprint_is_layout_invariant() {
    let _guard = locked();
    let base = registry_fingerprint(tiny());
    assert!(
        base.contains("counter synth.flows_emitted"),
        "sweep recorded no flow counters:\n{base}"
    );
    assert!(
        base.contains("hist synth.flow_bytes"),
        "sweep recorded no flow-size distribution"
    );
    let fanned = registry_fingerprint(tiny().threads(3));
    assert_eq!(
        base, fanned,
        "metrics fingerprint must be identical across thread layouts"
    );
}

/// The two fault-plane scenarios, explicitly: injected-fault and per-cause
/// drop counters are a function of the workload, not the thread layout.
#[test]
fn stress_scenario_counters_are_layout_invariant() {
    let _guard = locked();
    let watched = [
        "drops.dns-failure",
        "drops.gateway-outage",
        "drops.pool-exhausted",
        "drops.path-loss",
        "dns.injected_servfail",
        "dns.injected_timeout",
        "synth.flows_emitted",
    ];
    for name in ["faults-sweep", "adoption-under-stress"] {
        let scenario = find(name).expect("registered");
        let mut counts: Vec<Vec<Option<u64>>> = Vec::new();
        for config in [tiny(), tiny().threads(3)] {
            let mut session = Session::new(config);
            scenario.run(&mut session);
            let metrics = session.metrics();
            counts.push(watched.iter().map(|w| metrics.counter(w)).collect());
            obs::set_enabled(false);
        }
        assert_eq!(
            counts[0], counts[1],
            "{name}: fault counters diverged across layouts ({watched:?})"
        );
        // The first four watched names are the per-cause drop counters.
        let total_drops: u64 = counts[0][..4].iter().flatten().sum();
        assert!(
            total_drops > 0,
            "{name}: expected the fault plane to drop something"
        );
    }
}

/// Zero-overhead contract: the same scenario, same seed, produces a
/// byte-identical report whether the plane is disabled or recording.
#[test]
fn enabled_plane_never_perturbs_reports() {
    let _guard = locked();
    for name in ["table1", "transition", "faults-sweep"] {
        let scenario = find(name).expect("registered");
        let dark = {
            let mut session = Session::new(tiny().metrics(false));
            assert!(!obs::enabled(), "plane must stay dark without the flag");
            scenario.run(&mut session).to_json()
        };
        let lit = {
            let mut session = Session::new(tiny());
            let report = scenario.run(&mut session).to_json();
            assert!(
                !session.metrics().is_empty(),
                "{name}: plane was on but recorded nothing"
            );
            obs::set_enabled(false);
            report
        };
        assert_eq!(
            dark, lit,
            "{name}: telemetry must observe without perturbing"
        );
    }
}
