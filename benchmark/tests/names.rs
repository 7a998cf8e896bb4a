//! Name consistency between `BENCHMARK.json` and the runner.
//!
//! A metric or workload that one side names and the other does not is a
//! benchmark that silently measures less than it claims, so the two lists
//! must match both ways, and every name must fit the benchmark format.

use eccparity_benchmark::{per_layer_metrics, END_TO_END, WORKLOADS};
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Value {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of `key`, in file order.
fn entries(json: &Value, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks the {key} list"))
        .iter()
        .map(|e| {
            let field = |f: &str| e.get(f).and_then(Value::as_str).map(str::to_string);
            (
                field("name").expect("every entry has a name"),
                field("unit").unwrap_or_default(),
            )
        })
        .collect()
}

fn sorted(v: impl IntoIterator<Item = (String, String)>) -> Vec<(String, String)> {
    let mut v: Vec<_> = v.into_iter().collect();
    v.sort();
    v
}

#[test]
fn workloads_match_the_runner() {
    let json: Vec<String> = entries(&benchmark_json(), "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(json, WORKLOADS.to_vec());
    let main = std::fs::read_to_string(manifest_dir().join("src/main.rs")).expect("read main.rs");
    for w in WORKLOADS {
        assert!(
            main.contains(&format!("\"{w}\" =>")),
            "main.rs does not dispatch {w}"
        );
    }
}

#[test]
fn end_to_end_metrics_match_the_runner() {
    let json = benchmark_json();
    let runner = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()));
    assert_eq!(sorted(entries(&json, "end_to_end")), sorted(runner));
    assert!(END_TO_END.len() <= 16);
    let bound = |name: &str| {
        json.get("end_to_end")
            .and_then(Value::as_array)
            .and_then(|a| {
                a.iter()
                    .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
            })
            .and_then(|e| e.get("bound"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{name} has no bound"))
    };
    for (name, _) in END_TO_END {
        assert!(bound(name) > 0.0 && bound(name) <= 0.25, "{name}");
        assert!(
            bound(name) <= bound("setup_s"),
            "setup_s must have the largest bound"
        );
    }
}

#[test]
fn per_layer_metrics_match_the_runner() {
    let runner = per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()));
    assert_eq!(
        sorted(entries(&benchmark_json(), "per_layer")),
        sorted(runner)
    );
    assert!(per_layer_metrics().len() <= 128);
}

fn well_formed(name: &str, max: usize, extra: &str) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let json = benchmark_json();
    let mut seen = BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for (name, unit) in entries(&json, key) {
            assert!(
                well_formed(&name, 64, "")
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric()),
                "bad name {name:?}"
            );
            assert!(seen.insert(name.clone()), "{name} is used twice");
            if key != "workloads" {
                assert!(well_formed(&unit, 16, "/%"), "bad unit {unit:?} of {name}");
            }
        }
    }
}
