//! Smoke test of the benchmark itself: every workload at a tiny size, in
//! both modes, emits every named metric with its unit and passes its
//! correctness checks; the metric tables match `BENCHMARK.json`.

use heimdall_perfbench::report::{result_line, table, MetricDef, REPORTED};
use heimdall_perfbench::{run, Opts, Scale, Workload, END_TO_END, PER_LAYER};

fn tiny(trace: bool) -> Opts {
    Opts {
        seed: 3,
        seconds: 0.01,
        trace,
        scale: Scale::Tiny,
        span_out: None,
    }
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(w, &tiny(trace));
            let failed: Vec<String> = out
                .checks
                .iter()
                .filter(|c| !c.ok)
                .map(|c| format!("{}: {}", c.name, c.detail))
                .collect();
            assert!(failed.is_empty(), "{} trace={trace}: {failed:?}", w.name());
            assert!(out.attempted > 0, "{} attempted nothing", w.name());

            let line = result_line(&[(w.name(), &out)], trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for d in table(trace) {
                let entry = format!("\"{}\": {{\"value\": ", d.name);
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{} missing from {line}", d.name));
                let unit = format!("\"unit\": \"{}\"}}", d.unit);
                assert!(
                    line[at..]
                        .find(&unit)
                        .is_some_and(|u| !line[at..at + u].contains('}')),
                    "{} printed without its unit {}",
                    d.name,
                    d.unit
                );
            }
            for d in REPORTED {
                assert!(
                    out.get(d.name).is_some_and(f64::is_finite),
                    "{} not reported on {}",
                    d.name,
                    w.name()
                );
            }
        }
    }
}

/// `(name, unit)` of every metric object in one `BENCHMARK.json` section.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, f: &str| -> String {
        let tag = format!("\"{f}\": \"");
        let at = obj.find(&tag).unwrap_or_else(|| panic!("no {f} in {obj}")) + tag.len();
        obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn pairs(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    assert_eq!(section(&json, "end_to_end"), pairs(END_TO_END));
    assert_eq!(section(&json, "per_layer"), pairs(PER_LAYER));
    for w in Workload::ALL {
        let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why());
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
