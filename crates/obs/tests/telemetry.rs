//! Core telemetry-plane behavior: deterministic merge, span-path
//! inheritance across threads, inertness when disabled.
//!
//! The plane is process-global, so every test takes `TEST_LOCK` and resets
//! state on entry — the tests would race each other otherwise.

use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

#[test]
fn merge_is_sorted_and_sums_across_threads() {
    let _lock = locked();
    obs::reset();
    obs::set_enabled(true);

    std::thread::scope(|scope| {
        for t in 0..4 {
            scope.spawn(move || {
                // Record in thread-dependent order; the snapshot must not care.
                if t % 2 == 0 {
                    obs::counter_add("zebra", 1);
                    obs::counter_add("alpha", 10);
                } else {
                    obs::counter_add("alpha", 10);
                    obs::counter_add("zebra", 1);
                }
                obs::gauge_max("peak", 100 + t);
                obs::hist_record("sizes", 1 << t);
            });
        }
    });

    let report = obs::snapshot();
    obs::set_enabled(false);

    let names: Vec<&str> = report.counters.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["alpha", "zebra"]);
    assert_eq!(report.counter("alpha"), Some(40));
    assert_eq!(report.counter("zebra"), Some(4));
    assert_eq!(report.gauge("peak"), Some(103));
    let h = report.histogram("sizes").expect("sizes histogram");
    assert_eq!(h.count, 4);
    assert_eq!(h.sum, 1 + 2 + 4 + 8);
    assert_eq!(h.min, 1);
    assert_eq!(h.max, 8);
}

#[test]
fn span_paths_nest_and_survive_fan_out() {
    let _lock = locked();
    obs::reset();
    obs::set_enabled(true);

    {
        let _stage = obs::span!("stage");
        assert_eq!(obs::current_span_path(), "stage");
        // The executor's workers inherit the caller's path.
        obs::par::ordered(
            vec![7; 3],
            3,
            |_, item: u32| {
                let _work = obs::span!("work", item = item);
            },
            |_, ()| {},
        );
        // Inline (threads=1) shape: same path, no inheritance needed.
        let _work = obs::span!("work");
    }

    let report = obs::snapshot();
    obs::set_enabled(false);

    let paths: Vec<(&str, u64)> = report
        .spans
        .iter()
        .map(|s| (s.path.as_str(), s.count))
        .collect();
    assert_eq!(paths, [("stage", 1), ("stage/work", 4)]);
}

#[test]
fn disabled_plane_records_nothing() {
    let _lock = locked();
    obs::reset();
    obs::set_enabled(false);

    let _span = obs::span!("ghost");
    obs::counter_add("ghost.counter", 5);
    obs::gauge_max("ghost.gauge", 5);
    obs::hist_record("ghost.hist", 5);
    drop(_span);

    assert!(obs::snapshot().is_empty());
}

#[test]
fn fingerprint_covers_counts_not_nanoseconds() {
    let _lock = locked();
    obs::reset();
    obs::set_enabled(true);

    {
        let _s = obs::span!("timed");
    }
    obs::counter_add("c", 3);
    let report = obs::snapshot();
    obs::set_enabled(false);

    let fp = report.counts_fingerprint();
    assert!(fp.contains("span timed count=1"));
    assert!(fp.contains("counter c 3"));
    assert!(!fp.contains("ns"), "fingerprint must exclude timings: {fp}");
}

#[test]
fn log_sink_captures_filtered_messages() {
    let _lock = locked();
    use std::sync::Arc;

    let captured: Arc<Mutex<Vec<(obs::Level, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&captured);
    obs::set_log_sink(Some(Box::new(move |level, text| {
        sink.lock().unwrap().push((level, text.to_owned()));
    })));
    obs::set_log_level(Some(obs::Level::Warn));

    obs::info!("not captured at warn threshold");
    obs::warn!("captured {}", 1);
    obs::error!("captured {}", 2);
    assert!(!obs::log_enabled(obs::Level::Debug));
    assert!(obs::log_enabled(obs::Level::Error));

    obs::set_log_level(None);
    obs::trace!("silenced entirely");

    obs::set_log_sink(None);
    obs::set_log_level(Some(obs::Level::Info));

    let got = captured.lock().unwrap();
    assert_eq!(
        *got,
        [
            (obs::Level::Warn, "captured 1".to_owned()),
            (obs::Level::Error, "captured 2".to_owned()),
        ]
    );
}

#[test]
fn snapshot_serializes_to_json() {
    let _lock = locked();
    obs::reset();
    obs::set_enabled(true);
    obs::counter_add("json.check", 1);
    obs::hist_record("json.hist", 42);
    let report = obs::snapshot();
    obs::set_enabled(false);

    let json = serde_json::to_string(&report).expect("serializes");
    assert!(json.contains("\"json.check\""));
    assert!(json.contains("\"histograms\""));
}
