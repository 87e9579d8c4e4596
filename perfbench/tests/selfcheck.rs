//! Self-checks of the benchmark itself, each run in separate processes.
//! (That one seed always yields byte-identical inputs is a unit test of
//! `src/inputs.rs`.)
//!
//! At `jobs = 1` the checker's work counters are a function of the inputs
//! alone, so a traced run repeats them exactly in any process on any host.
//! wide-par runs at `jobs = 2`: which worker reaches a repeated chain first
//! depends on thread timing, so its `core.table_hit_share` and
//! `core.table_lookups` may differ from run to run, and it is not checked
//! here.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the debug build works too, only slower).

use arrayeq_engine::JsonValue;
use std::process::Command;

fn perfbench(args: &[&str]) -> String {
    let workdir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .arg("--workdir")
        .arg(&workdir)
        .output()
        .expect("perfbench starts");
    assert!(
        out.status.success(),
        "perfbench {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_owned()
}

/// The metric names `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(key)
        .and_then(JsonValue::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_owned()
        })
        .collect()
}

/// Parses a result line, checks it is correct, and returns its metrics.
fn metrics(line: &str) -> Vec<(String, JsonValue)> {
    let result = JsonValue::parse(line).expect("the result line is JSON");
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true),
        "{line}"
    );
    match result.get("metrics") {
        Some(JsonValue::Object(m)) => m.clone(),
        _ => panic!("no metrics object in {line}"),
    }
}

fn number(v: Option<&JsonValue>) -> f64 {
    match v {
        Some(JsonValue::Int(i)) => *i as f64,
        Some(JsonValue::Float(f)) => *f,
        other => panic!("not a number: {other:?}"),
    }
}

/// The `count` metrics of one short traced run, by name.  However short
/// the run, its counts cover the same first requests.
fn work_counts(workload: &str) -> Vec<(String, f64)> {
    let line = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.2",
        "--trace",
        "1",
    ]);
    let metrics = metrics(&line);
    let names: Vec<String> = metrics.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(names, declared("per_layer"));
    let counts: Vec<(String, f64)> = metrics
        .iter()
        .filter(|(_, m)| m.get("unit").and_then(JsonValue::as_str) == Some("count"))
        .map(|(name, m)| (name.clone(), number(m.get("value"))))
        .collect();
    assert!(
        counts
            .iter()
            .any(|(name, v)| name == "core.compositions" && *v > 0.0),
        "{line}"
    );
    counts
}

#[test]
fn jobs1_work_counts_repeat_exactly_across_processes() {
    for workload in ["deep-seq", "edit-loop"] {
        assert_eq!(work_counts(workload), work_counts(workload), "{workload}");
    }
}

#[test]
fn a_plain_run_prints_the_declared_end_to_end_metrics() {
    let line = perfbench(&[
        "--workload",
        "deep-seq",
        "--seed",
        "3",
        "--seconds",
        "0.2",
        "--trace",
        "0",
    ]);
    let names: Vec<String> = metrics(&line).into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, declared("end_to_end"));
}
