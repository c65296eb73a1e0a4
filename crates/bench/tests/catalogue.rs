//! The probe catalogue joined against the benchmark's per-layer breakdown
//! (`e2ebench/layers.json`): names are unique ledger rows, and each probe
//! sits under the layer its `layer` field names.

use ipv6view_bench::probes;
use serde_json::Value;
use std::collections::BTreeSet;

#[test]
fn every_probe_is_unique_and_sits_under_its_layer_in_layers_json() {
    let mut catalogue = probes::lpm();
    catalogue.extend(probes::pipeline());
    let names: BTreeSet<&str> = catalogue.iter().map(|p| p.name).collect();
    assert_eq!(names.len(), catalogue.len(), "a row name is defined twice");

    let text = include_str!("../../../e2ebench/layers.json");
    let layers: Value = serde_json::from_str(text).expect("layers.json parses");
    let layers = layers
        .get("layers")
        .and_then(Value::as_array)
        .expect("layers");
    for p in &catalogue {
        let listed: Vec<&str> = layers
            .iter()
            .filter(|l| {
                let rows = l.get("rows").and_then(Value::as_array);
                rows.is_some_and(|rows| rows.iter().any(|r| r.as_str() == Some(p.name)))
            })
            .filter_map(|l| l.get("layer").and_then(Value::as_str))
            .collect();
        assert_eq!(listed, [p.layer], "{} is listed under {listed:?}", p.name);
    }
}
