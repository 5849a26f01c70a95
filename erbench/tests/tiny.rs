//! Every workload at tiny scale, timed and traced: each metric that
//! `BENCHMARK.json` names is emitted exactly once, with its unit and a
//! finite value, and the correctness oracle passes on two seeds. The
//! traced `entity-oltp` stretch must both hit and miss its buffer pool.

use erbench::{run, Options, Scale, WORKLOADS};
use serde_json::Value;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric listed under `key`.
fn specs(doc: &Value, key: &str) -> Vec<(String, String)> {
    let Value::Object(doc) = doc else {
        panic!("BENCHMARK.json is an object")
    };
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let Value::Object(m) = m else {
                panic!("metric entry is an object")
            };
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn check(opts: &Options, want: &[(String, String)]) -> erbench::Report {
    let report = run(opts).expect("known workload");
    let context = format!("{opts:?}: {:#?}", report.notes);
    assert!(report.correct, "oracle failed: {context}");
    assert_eq!(report.failed, 0, "{context}");
    assert!(report.attempted > 0, "{context}");

    let line: Value = serde_json::from_str(&report.to_json()).expect("result line is JSON");
    let Value::Object(line) = line else {
        panic!("result line is an object")
    };
    let Some(Value::Object(metrics)) = line.get("metrics") else {
        panic!("metrics object")
    };
    assert_eq!(
        metrics.len(),
        report.metrics.len(),
        "a metric name repeats: {context}"
    );
    for (name, unit) in want {
        let Some(Value::Object(m)) = metrics.get(name) else {
            panic!("{name} missing: {context}")
        };
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let v = m.get("value").and_then(Value::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{name} = {v:?}: {context}");
    }
    assert_eq!(
        metrics.len(),
        want.len(),
        "unlisted metrics emitted: {context}"
    );
    report
}

#[test]
fn every_workload_emits_every_listed_metric_and_passes_its_oracle() {
    let doc = benchmark();
    let (end_to_end, per_layer) = (specs(&doc, "end_to_end"), specs(&doc, "per_layer"));
    for workload in WORKLOADS {
        for seed in [1, 2] {
            let opts = Options {
                workload: workload.to_string(),
                seed,
                seconds: 0.2,
                trace: false,
                scale: Scale::Tiny,
            };
            check(&opts, &end_to_end);
        }
    }
    let opts = Options {
        workload: WORKLOADS[0].to_string(),
        seed: 3,
        seconds: 0.2,
        trace: true,
        scale: Scale::Tiny,
    };
    let traced = check(&opts, &per_layer);
    // entity-oltp's working set outgrows its pool: pages both hit and miss.
    let hit_ratio = traced
        .metrics
        .iter()
        .find(|(name, _, _)| name == "storage.pool_hit_ratio")
        .map(|(_, v, _)| *v)
        .expect("storage.pool_hit_ratio");
    assert!(
        hit_ratio > 0.0 && hit_ratio < 1.0,
        "pool hit ratio {hit_ratio}"
    );
}
