//! Runs the whole benchmark at `--smoke` scale, plain and traced, and
//! holds what it prints to `BENCHMARK.json`: the same workloads, the
//! same metric names and units, none missing and none unknown.

use bigdansing_serve::ingest::Json;
use std::process::Command;

fn fields(json: &Json) -> &[(String, Json)] {
    match json {
        Json::Obj(fields) => fields,
        other => panic!("expected an object, found {other:?}"),
    }
}

fn field<'a>(json: &'a Json, key: &str) -> &'a Json {
    let found = fields(json).iter().find(|(k, _)| k == key);
    &found
        .unwrap_or_else(|| panic!("no field `{key}` in {json:?}"))
        .1
}

fn text(json: &Json) -> &str {
    json.as_str()
        .unwrap_or_else(|| panic!("expected a string, found {json:?}"))
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    Json::parse(&raw).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(spec: &Json, section: &str) -> Vec<(String, String)> {
    let list = field(spec, section).as_array().expect("a list of metrics");
    list.iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn well_formed_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty() && name.len() <= 64 && name.chars().all(ok)
}

/// Run the full smoke set and return the last line of its output.
fn smoke_set(trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_bigdansing-benchmark"))
        .args(["--smoke", "--seed", "5", "--trace", trace])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke set failed (trace {trace}):\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

/// Every workload of `BENCHMARK.json` reported exactly the metrics of
/// `section`, with the declared units.
fn assert_reports(result: &Json, spec: &Json, section: &str) {
    assert!(matches!(field(result, "correct"), Json::Bool(true)));
    let want = declared(spec, section);
    let workloads: Vec<&str> = field(spec, "workloads")
        .as_array()
        .expect("a list of workloads")
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    let reported = fields(field(result, "workloads"));
    let names: Vec<&str> = reported.iter().map(|(w, _)| w.as_str()).collect();
    for w in &workloads {
        assert!(names.contains(w), "workload {w} did not run");
    }
    assert_eq!(
        names.len(),
        workloads.len(),
        "unknown workload in {names:?}"
    );
    for (workload, run) in reported {
        assert!(
            matches!(field(run, "correct"), Json::Bool(true)),
            "{workload} incorrect"
        );
        assert!(field(run, "attempted").as_u64().expect("a count") >= 1);
        assert_eq!(field(run, "failed").as_u64(), Some(0));
        let got: Vec<(String, String)> = fields(field(run, "metrics"))
            .iter()
            .map(|(name, m)| {
                assert!(matches!(field(m, "value"), Json::Num(v) if v.is_finite()));
                (name.clone(), text(field(m, "unit")).to_string())
            })
            .collect();
        assert_eq!(
            got, want,
            "{workload}: {section} metrics differ from BENCHMARK.json"
        );
    }
}

#[test]
fn benchmark_json_declares_every_metric_fully() {
    let spec = benchmark_json();
    let mut seen = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for m in field(&spec, section).as_array().expect("a list of metrics") {
            let name = text(field(m, "name"));
            assert!(well_formed_name(name), "bad metric name `{name}`");
            assert!(!seen.contains(&name.to_string()), "`{name}` declared twice");
            seen.push(name.to_string());
            assert!(!text(field(m, "unit")).is_empty(), "{name} has no unit");
            assert!(
                matches!(text(field(m, "better")), "lower" | "higher"),
                "{name} direction"
            );
            if section == "end_to_end" {
                let Json::Num(bound) = field(m, "bound") else {
                    panic!("{name} has no bound");
                };
                assert!(*bound > 0.0 && *bound <= 0.25, "{name} bound {bound}");
            }
        }
    }
    assert!(seen.iter().any(|n| n == "setup_s"));
    for w in field(&spec, "workloads")
        .as_array()
        .expect("a list of workloads")
    {
        assert!(well_formed_name(text(field(w, "name"))));
        assert!(text(field(w, "why")).len() <= 200);
    }
}

#[test]
fn smoke_set_reports_exactly_the_declared_end_to_end_metrics() {
    let result = smoke_set("0");
    assert_reports(&result, &benchmark_json(), "end_to_end");
    // `--repeat` holds sets to the bounds `BENCHMARK.json` declares
    let spec = benchmark_json();
    for m in field(&spec, "end_to_end")
        .as_array()
        .expect("a list of metrics")
    {
        let bound = field(field(&result, "bounds"), text(field(m, "name")));
        assert_eq!(format!("{bound:?}"), format!("{:?}", field(m, "bound")));
    }
    // provenance travels with the numbers
    let provenance = field(&result, "provenance");
    for key in [
        "seed",
        "sizes",
        "nproc",
        "ram_mb",
        "git_rev",
        "rustc",
        "allocator",
        "operations",
    ] {
        field(provenance, key);
    }
}

#[test]
fn traced_smoke_set_reports_exactly_the_declared_per_layer_metrics() {
    assert_reports(&smoke_set("1"), &benchmark_json(), "per_layer");
}
