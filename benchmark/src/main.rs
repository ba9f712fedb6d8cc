//! `bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric by name with its unit, the
//! output checks and the run stamp, then — as the last line — one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. A traced
//! run also writes its spans to `.bench_out/` in the current directory.

use banscore_benchmark::report::{result_json, Metrics};
use banscore_benchmark::workloads::{self, Request};
use std::process::ExitCode;

const USAGE: &str =
    "usage: bench --workload <swarm-bmdos|victim-flood|strike-churn|detect-replay> --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<Request, String> {
    let mut req = Request {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => req.workload = value,
            "--seed" => req.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => req.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                req.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if req.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(req)
}

fn print_metrics(title: &str, m: &Metrics) {
    for metric in &m.0 {
        println!("{title} {} = {} {}", metric.name, metric.value, metric.unit);
    }
}

fn main() -> ExitCode {
    let req = match parse() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match workloads::run(&req) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("stamp {}", out.stamp.json());
    println!("digest {:016x}", out.digest);
    if let Some(csv) = &out.spans_csv {
        let dir = std::path::Path::new(".bench_out");
        let base = format!("{}-seed{}", req.workload, req.seed);
        let spans = dir.join(format!("{base}.spans.csv"));
        let mut layers = format!("{{\"stamp\": {}, \"metrics\": {{", out.stamp.json());
        for (i, m) in out.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            layers.push_str(&format!(
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        layers.push_str("}}\n");
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&spans, csv))
            .and_then(|()| std::fs::write(dir.join(format!("{base}.layers.json")), layers));
        match written {
            Ok(()) => println!("trace written to {}", spans.display()),
            Err(e) => {
                eprintln!("bench: writing the trace: {e}");
                return ExitCode::from(1);
            }
        }
    }
    for (name, v) in &out.samples {
        let v: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        println!("samples {name} [{}] ({} values)", v.join(", "), v.len());
    }
    print_metrics("extra", &out.extra);
    print_metrics("metric", &out.metrics);
    let c = &out.checks;
    println!(
        "operations attempted={} failed={} failed_share={}",
        c.attempted,
        c.failed,
        c.failed as f64 / c.attempted.max(1) as f64
    );
    for f in &c.failures {
        println!("CHECK FAILED: {f}");
    }
    println!(
        "checks {}",
        if c.failures.is_empty() {
            "passed"
        } else {
            "FAILED"
        }
    );
    println!("{}", result_json(c, &out.metrics));
    ExitCode::SUCCESS
}
