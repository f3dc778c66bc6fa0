//! The package's own gate: every workload, at toy sizes, prints exactly the
//! metrics `BENCHMARK.json` declares, as JSON a parser accepts.

use fairdms_e2e::json::{self, Value};
use fairdms_e2e::metrics::{is_valid_name, Decl, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<&str> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("a name"))
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_code_prints() {
    let spec = benchmark_json();
    let keys: Vec<&str> = spec
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(names(spec.get("workloads").unwrap()), WORKLOADS);
    for w in spec.get("workloads").unwrap().as_array().unwrap() {
        let why = w.get("why").and_then(Value::as_str).expect("a why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    let check = |key: &str, table: &[Decl], bounded: bool| {
        let list = spec.get(key).unwrap().as_array().unwrap();
        assert_eq!(list.len(), table.len(), "{key}");
        for (m, (name, unit, better)) in list.iter().zip(table) {
            assert_eq!(m.get("name").and_then(Value::as_str), Some(*name));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(better.as_str()),
                "{name}"
            );
            let bound = m.get("bound").and_then(Value::as_f64);
            assert_eq!(bound.is_some(), bounded, "{name}");
            assert!(bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{name}");
            assert_eq!(m.as_object().unwrap().len(), if bounded { 4 } else { 3 });
        }
    };
    check("end_to_end", &END_TO_END, true);
    check("per_layer", &PER_LAYER, false);
    let seconds = spec.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
}

/// Runs the built binary at smoke scale and returns its standard output.
fn smoke(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fairdms-e2e"))
        .args(["--workload", workload, "--seed", "7", "--scale", "smoke"])
        .args(["--seconds", "0.3", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check_result_line(stdout: &str, table: &[Decl]) {
    let last = stdout.lines().last().expect("some output");
    let rec = json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = rec
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(rec.get("correct"), Some(&Value::Bool(true)));
    assert!(rec.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(rec.get("failed").and_then(Value::as_f64), Some(0.0));
    // Members keep document order and duplicates: equal lists mean every
    // declared metric exactly once and nothing else.
    let metrics = rec.get("metrics").unwrap().as_object().unwrap();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = table.iter().map(|(n, ..)| *n).collect();
    assert_eq!(got, want);
    for ((name, m), (_, unit, _)) in metrics.iter().zip(table) {
        assert!(is_valid_name(name), "{name}");
        assert!(
            m.get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
        // ... and the same metric is on a line of its own, with its unit.
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("{name} ")) && l.ends_with(&format!(" {unit}"))),
            "{name} has no line of its own"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_once() {
    for workload in WORKLOADS {
        let stdout = smoke(workload, false);
        check_result_line(&stdout, &END_TO_END);
        let stamp = json::parse(stdout.lines().next().unwrap()).expect("the stamp is JSON");
        for key in ["cores", "rustc", "profile", "target_cpu", "commit", "seed"] {
            assert!(
                stamp.get("stamp").unwrap().get(key).is_some(),
                "stamp.{key}"
            );
        }
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_once_and_writes_its_spans() {
    for workload in WORKLOADS {
        check_result_line(&smoke(workload, true), &PER_LAYER);
        let path = format!("{}/out/trace-{workload}.jsonl", env!("CARGO_MANIFEST_DIR"));
        let spans = std::fs::read_to_string(&path).expect("the traced run wrote its spans");
        assert!(spans.lines().count() > 10, "{path}");
        for line in spans.lines() {
            let s = json::parse(line).expect("one JSON object per span");
            for key in [
                "id", "name", "start_ns", "end_ns", "self_ns", "parent", "request",
            ] {
                assert!(s.get(key).is_some(), "{key} in {line}");
            }
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result_line() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "fresh_reads"],
        &["--workload", "fresh_reads", "--seed", "1", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fairdms-e2e"))
            .args(args)
            .output()
            .expect("spawn the benchmark");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
