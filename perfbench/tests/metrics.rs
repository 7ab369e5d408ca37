//! Runs the benchmark binary in its tiny mode and checks that every
//! metric `BENCHMARK.json` names is printed, with its unit, in the JSON
//! result line, and that the run's checks pass.

use std::process::Command;

/// `(name, unit)` of every metric object in the `key` array of
/// `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\"")).expect("field present");
        let rest = &obj[at + f.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(
        last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0,"),
        "{last}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    last
}

fn assert_prints(line: &str, metrics: &[(String, String)]) {
    for (name, unit) in metrics {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&entry)
            .unwrap_or_else(|| panic!("{name} missing from {line}"));
        let rest = &line[at + entry.len()..];
        let value: f64 = rest[..rest.find(',').expect("value ends")]
            .parse()
            .unwrap_or_else(|_| panic!("{name} has no numeric value"));
        assert!(value.is_finite());
        let unit_field = format!(", \"unit\": \"{unit}\"}}");
        assert!(
            rest[rest.find(',').expect("value ends")..].starts_with(&unit_field),
            "{name} lacks unit {unit}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let metrics = declared("end_to_end");
    assert!(metrics.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in ["serve-scaled", "net-mixed", "sweep"] {
        assert_prints(&run(workload, "0"), &metrics);
    }
}

#[test]
fn the_traced_run_prints_every_per_layer_metric() {
    let line = run("sweep", "1");
    let metrics = declared("per_layer");
    assert!(metrics.len() > 40);
    assert_prints(&line, &metrics);
}
