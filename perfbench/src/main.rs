//! Benchmark command line.
//!
//! Usage: `heimdall-perfbench --workload <loop_msr|serve_tencent|serve_wide|all>
//! [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints the host facts, each workload's input sizes, checks and metrics,
//! and as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when a correctness check fails and 2 on
//! a usage error.

use heimdall_perfbench::report::{result_line, table, REPORTED};
use heimdall_perfbench::{host, run, Opts, Outcome, Scale, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: heimdall-perfbench --workload <loop_msr|serve_tencent|serve_wide|all> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut opts = Opts {
        seed: host::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        span_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match value.parse() {
                Ok(v) => opts.seed = v,
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => opts.seconds = v,
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let workloads: Vec<Workload> = match workload.as_deref() {
        Some("all") => Workload::ALL.to_vec(),
        Some(name) => match Workload::parse(name) {
            Some(w) => vec![w],
            None => return usage(&format!("unknown workload {name}")),
        },
        None => return usage("--workload is required"),
    };

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    println!(
        "host nproc={} commit={} pipeline_jobs={} default_seed={} held_out_seed={}",
        host::nproc(),
        host::commit(root.parent().unwrap_or(root)),
        host::PIPELINE_JOBS,
        host::DEFAULT_SEED,
        host::HELD_OUT_SEED
    );
    let mut outcomes: Vec<(&str, Outcome)> = Vec::new();
    for w in workloads {
        if opts.trace {
            opts.span_out = Some(spans_path(root, w));
        }
        println!("workload {} why: {}", w.name(), w.why());
        let out = run(w, &opts);
        print_outcome(w, &out, opts.trace);
        outcomes.push((w.name(), out));
    }
    let refs: Vec<(&str, &Outcome)> = outcomes.iter().map(|(n, o)| (*n, o)).collect();
    println!("{}", result_line(&refs, opts.trace));
    if refs.iter().all(|(_, o)| o.correct()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Span file of a traced run, inside the benchmark's own directory.
fn spans_path(root: &Path, w: Workload) -> PathBuf {
    root.join("out").join(format!("spans-{}.tsv", w.name()))
}

fn print_outcome(w: Workload, out: &Outcome, trace: bool) {
    let name = w.name();
    println!("{name} inputs {}", out.info.join(" "));
    for c in &out.checks {
        let status = if c.ok { "ok" } else { "FAILED" };
        println!("{name} check {} {status}: {}", c.name, c.detail);
    }
    println!("{name} attempted={} failed={}", out.attempted, out.failed);
    for (kind, defs) in [("metric", table(trace)), ("reported", REPORTED)] {
        for d in defs {
            let v = out.get(d.name).unwrap_or(f64::NAN);
            println!("{name} {kind} {:<40} {v:>16.6} {}", d.name, d.unit);
        }
    }
}
