//! The probe catalogue (`probes::LEDGERS`) joined against the benchmark's
//! per-layer breakdown (`e2ebench/layers.json`), in both directions: every
//! probe is a unique row listed under its layer, and every listed row is a
//! probe, except the stale names the next benchmark re-cut prunes.

use ipv6view_bench::probes::LEDGERS;
use serde_json::Value;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Rows `layers.json` still lists although no probe times them any more.
/// The benchmark re-cut removes them from `layers.json`, and then this set.
const STALE: [&str; 7] = [
    "flow_table_new_packet_destroy",
    "lpm4_longest_match_50k_prefixes",
    "lpm6_longest_match_50k_prefixes",
    "lpm6_longest_match_many_4k_dup_addrs",
    "lpm6_longest_match_loop_4k_dup_addrs",
    "lpm6_longest_match_many_4k_unique_addrs",
    "per_as_agg_200k_flows_100k_ases_interned_symvec",
];

/// Every probe's `(name, layer)`, over every ledger's group, built once.
fn catalogue() -> &'static [(&'static str, &'static str)] {
    static ROWS: OnceLock<Vec<(&str, &str)>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let mut rows = Vec::new();
        for (ledger, group) in LEDGERS {
            let probes = group().unwrap_or_else(|e| panic!("{ledger}: {e}"));
            rows.extend(probes.iter().map(|p| (p.name, p.layer)));
        }
        rows
    })
}

/// Each `layers.json` layer with the rows it lists.
fn listed() -> Vec<(String, Vec<String>)> {
    let text = include_str!("../../../e2ebench/layers.json");
    let layers: Value = serde_json::from_str(text).expect("layers.json parses");
    let layers = layers
        .get("layers")
        .and_then(Value::as_array)
        .expect("layers");
    layers
        .iter()
        .map(|l| {
            let layer = l.get("layer").and_then(Value::as_str).expect("layer name");
            let rows = l.get("rows").and_then(Value::as_array);
            let rows = rows.into_iter().flatten().filter_map(Value::as_str);
            (layer.to_string(), rows.map(str::to_string).collect())
        })
        .collect()
}

#[test]
fn every_probe_is_unique_and_sits_under_its_layer_in_layers_json() {
    let catalogue = catalogue();
    let names: BTreeSet<&str> = catalogue.iter().map(|&(name, _)| name).collect();
    assert_eq!(names.len(), catalogue.len(), "a row name is defined twice");

    let layers = listed();
    for &(name, layer) in catalogue {
        let under: Vec<&str> = layers
            .iter()
            .filter(|(_, rows)| rows.iter().any(|r| r == name))
            .map(|(l, _)| l.as_str())
            .collect();
        assert_eq!(under, [layer], "{name} is listed under {under:?}");
    }
}

#[test]
fn the_rows_layers_json_lists_without_a_probe_are_exactly_the_stale_ones() {
    let probes: BTreeSet<&str> = catalogue().iter().map(|&(name, _)| name).collect();
    let orphans: BTreeSet<String> = listed()
        .into_iter()
        .flat_map(|(_, rows)| rows)
        .filter(|r| !probes.contains(r.as_str()))
        .collect();
    let stale: BTreeSet<String> = STALE.iter().map(|s| s.to_string()).collect();
    assert_eq!(orphans, stale, "rows listed in layers.json with no probe");
}
