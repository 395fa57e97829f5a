//! `perfbench` — the end-to-end and per-layer benchmark of the sciduction
//! stack (see `perfbench/README.md` for the workloads and metrics).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload deobfuscate|serve_cached|serve_certified|serve_isolated \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones plus the tracing overhead, and the spans are
//! written under `.perfbench-work/traces/`.

mod deobfuscate;
mod gate;
mod layers;
mod mix;
mod serve;
mod stats;
mod trace;

use mix::ServeKind;
use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's definition; its `end_to_end` and `per_layer` lists
/// name the metrics each result line carries, in order.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in the definition's list `key`.
fn metric_names(key: &str) -> Vec<(String, String)> {
    let def = sciduction::json::parse(DEFINITION).expect("BENCHMARK.json parses");
    def.get(key)
        .and_then(sciduction::json::Value::as_arr)
        .expect("BENCHMARK.json lists its metrics")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(sciduction::json::Value::as_str);
            (
                field("name").expect("metric name").to_string(),
                field("unit").expect("metric unit").to_string(),
            )
        })
        .collect()
}

const USAGE: &str = "usage: perfbench --workload deobfuscate|serve_cached|serve_certified|serve_isolated --seed N --seconds S --trace 0|1";

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn loop_metrics(&mut self, s: &stats::LoopStats) {
        self.metric("p50_ms", s.p50_ms);
        self.metric("p90_ms", s.p90_ms);
        self.metric("throughput_per_s", s.throughput_per_s);
    }

    /// Tracing overhead: traced minus untraced, per loop metric.
    pub fn overhead(&mut self, untraced: &stats::LoopStats, traced: &stats::LoopStats) {
        self.metric("trace_overhead.p50_ms", traced.p50_ms - untraced.p50_ms);
        self.metric("trace_overhead.p90_ms", traced.p90_ms - untraced.p90_ms);
        self.metric(
            "trace_overhead.throughput_per_s",
            traced.throughput_per_s - untraced.throughput_per_s,
        );
    }

    /// The result line: every metric of `names`, in order. A metric the
    /// workload never measured (a layer it does not enter) reports 0.
    fn to_json(&self, names: &[(String, String)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |&(_, v)| v);
                // Normalizes -0 and non-finite values to a plain 0.
                let value = if value.is_finite() && value != 0.0 {
                    value
                } else {
                    0.0
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Scratch space for this run, inside the directory the benchmark runs
/// from.
fn work_root() -> PathBuf {
    PathBuf::from(".perfbench-work")
}

/// Writes a traced run's spans and prints its per-layer self time.
pub fn write_trace(tracer: &trace::Tracer, workload: &str, seed: u64) {
    let path = work_root()
        .join("traces")
        .join(format!("{workload}-seed{seed}.jsonl"));
    match tracer.write(&path) {
        Ok(rows) => {
            eprintln!("{workload}: spans written to {}", path.display());
            for (name, spans, self_ms) in rows {
                eprintln!("  {name:<34} {spans:>8} spans  {self_ms:>12.3} ms self");
            }
        }
        Err(e) => eprintln!("{workload}: cannot write {}: {e}", path.display()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    // The process-isolation workload's server self-execs this binary as
    // its shard worker.
    if std::env::args().nth(1).as_deref() == Some(sciduction_server::SHARD_WORKER_FLAG) {
        return sciduction_server::shard_worker_main();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = work_root().join(format!("{}-{}", args.workload, std::process::id()));
    let serve = |kind, name| serve::run(kind, name, args.seed, args.seconds, args.trace, &work);
    let result = match args.workload.as_str() {
        "deobfuscate" => deobfuscate::run(args.seed, args.seconds, args.trace),
        "serve_cached" => serve(ServeKind::Cached, "serve_cached"),
        "serve_certified" => serve(ServeKind::Certified, "serve_certified"),
        "serve_isolated" => serve(ServeKind::Isolated, "serve_isolated"),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(outcome) => {
            let names = metric_names(if args.trace {
                "per_layer"
            } else {
                "end_to_end"
            });
            println!("{}", outcome.to_json(&names));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
