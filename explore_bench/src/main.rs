//! The exploration benchmark: end-to-end metrics of the Figure-1 loop
//! and of the Table 1 simulators, plus a traced run that attributes
//! each evaluation's time to a layer.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path explore_bench/Cargo.toml -- \
//!     --workload explore-spam --seed 0 --seconds 35 --trace 0
//! ```
//!
//! Run from the repository root: the start machine is read from
//! `fixtures/spam.isdl`. Human-readable lines come first; the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones, with `--trace 1` the per-layer ones, and the traced
//! run also writes its spans and layer table under `.bench_out/`. The
//! command exits non-zero when any correctness check fails. See
//! `README.md` beside this file for what each metric means on each
//! workload.

mod explore;
mod inputs;
mod measure;
mod sim;
mod spans;

use measure::{median, Metrics};
use obs::Json;
use spans::Tracer;

/// The start machine, relative to the repository root.
const SPAM_PATH: &str = "fixtures/spam.isdl";

/// Exploration worker threads: the load one process puts on a
/// two-core host.
const WORKERS: usize = 2;

/// Set-up runs this many times before the timed part. `setup_s` is the
/// median of all set-ups of a run.
const SETUP_MIN_REPEATS: usize = 9;

/// Further set-ups run between the timed units until their total time
/// is this share of the timed part. Spread over the whole run, they see
/// the same host conditions as the timed units, not only those of the
/// run's first moments.
const SETUP_SHARE: f64 = 0.05;

/// Where the traced run writes its span file and layer table.
const OUT_DIR: &str = ".bench_out";

/// The workloads and the simulator or exploration each one runs.
const WORKLOADS: [&str; 3] = ["explore-spam", "explore-spam-netlist", "sim-fir-long"];

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [&str; 5] =
    ["rate_per_s", "latency_p50_ms", "latency_p99_ms", "setup_s", "peak_rss_mb"];

/// Per-layer metrics and their units, reported by every workload with
/// `--trace 1`; a layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("isdl.load_us", "us"),
    ("isdl.print_key_us", "us"),
    ("archex.compile_us", "us"),
    ("xasm.assembler_new_us", "us"),
    ("xasm.assemble_us", "us"),
    ("gensim.generate_us", "us"),
    ("gensim.run_us", "us"),
    ("hgen.emit_us", "us"),
    ("hgen.share_plan_us", "us"),
    ("hgen.to_verilog_us", "us"),
    ("vlog.tech_analyze_us", "us"),
    ("vlog.event.elaborate_us", "us"),
    ("vlog.event.clock_us", "us"),
    ("vlog.useful_clock_ratio", "ratio"),
    ("archex.worker_busy_ratio", "ratio"),
    ("archex.evaluate_us", "us"),
    ("archex.layer_coverage", "ratio"),
    ("archex.evaluated", "count"),
    ("archex.skipped", "count"),
    ("archex.cache_hits", "count"),
    ("archex.rounds", "count"),
    ("gensim.sim_cycles", "cycles"),
    ("hgen.units_saved", "count"),
    ("hgen.lines_of_verilog", "lines"),
    ("gensim.ns_per_cycle", "ns"),
    ("gensim.translate.blocks", "count"),
    ("gensim.interp.ns_per_cycle", "ns"),
    ("gensim.tree.ns_per_cycle", "ns"),
    ("vlog.levelized.ns_per_cycle", "ns"),
    ("vlog.event.ns_per_cycle", "ns"),
    ("vlog.levelized.elaborate_us", "us"),
    ("best_score", "objective"),
    ("best_runtime_us", "sim_us"),
    ("best_area_cells", "cells"),
    ("cycle_error_pct", "%"),
    ("error_ratio", "ratio"),
];

/// One invocation's settings.
pub struct Run {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// What a workload run produced.
pub struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    /// Human-readable lines printed before the JSON line.
    report: Vec<String>,
}

fn parse_args() -> Result<Run, String> {
    let mut run =
        Run { workload: String::new(), seed: inputs::DEFAULT_SEED, seconds: 35, trace: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = number()?,
            "--seconds" => run.seconds = number()?.max(1),
            "--trace" => run.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(run)
}

fn dispatch(run: &Run) -> Result<Outcome, String> {
    match run.workload.as_str() {
        "explore-spam" => explore::run(run, false),
        "explore-spam-netlist" => explore::run(run, true),
        _ => sim::run(run),
    }
}

/// The JSON result line: the run's metrics in `BENCHMARK.json` order,
/// per-layer metrics a workload does not exercise as 0.
fn result_line(run: &Run, out: &Outcome) -> Result<Json, String> {
    let find = |name: &str| out.metrics.0.iter().find(|m| m.name == name);
    let mut metrics = Json::obj();
    let mut put = |name: &str, value: f64, unit: &str| -> Result<(), String> {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.insert(name, Json::obj().with("value", value).with("unit", unit));
        Ok(())
    };
    if run.trace {
        for (name, unit) in PER_LAYER {
            put(name, find(name).map_or(0.0, |m| m.value), unit)?;
        }
    } else {
        for name in END_TO_END {
            let m = find(name).ok_or_else(|| format!("workload reported no {name}"))?;
            put(name, m.value, m.unit)?;
        }
    }
    Ok(Json::obj()
        .with("correct", out.failed == 0)
        .with("attempted", out.attempted)
        .with("failed", out.failed)
        .with("metrics", metrics))
}

/// The `setup` spans recorded so far: their count and total time.
fn setups(t: &Tracer) -> (usize, std::time::Duration) {
    let ns: Vec<u64> =
        t.spans().iter().filter(|s| s.name == "setup").map(|s| s.end_ns - s.start_ns).collect();
    (ns.len(), std::time::Duration::from_nanos(ns.iter().sum()))
}

/// Whether [`SETUP_MIN_REPEATS`] set-ups have run.
fn setup_done(t: &Tracer) -> bool {
    setups(t).0 >= SETUP_MIN_REPEATS
}

/// Whether another set-up is due, `elapsed` into the timed part: all
/// set-ups so far took less than [`SETUP_SHARE`] of it.
fn setup_due(t: &Tracer, elapsed: std::time::Duration) -> bool {
    setups(t).1.as_secs_f64() < SETUP_SHARE * elapsed.as_secs_f64()
}

/// Median duration (µs) of the spans named `name`; 0 when there are
/// none.
fn span_median_us(t: &Tracer, name: &str) -> f64 {
    let d: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    median(&d)
}

/// Writes the traced run's span file and layer table.
fn write_trace_files(run: &Run, t: &Tracer, table: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let stem = format!("{OUT_DIR}/{}-seed{}", run.workload, run.seed);
    for (path, body) in [
        (format!("{stem}.spans.jsonl"), t.to_jsonl()),
        (format!("{stem}.layers.txt"), table.to_owned()),
    ] {
        std::fs::write(&path, body).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

fn main() {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("explore_bench: {e}");
            eprintln!(
                "usage: explore_bench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let line = dispatch(&run).and_then(|out| result_line(&run, &out).map(|line| (out, line)));
    match line {
        Ok((out, line)) => {
            println!(
                "{} seed {} ({})",
                run.workload,
                run.seed,
                if run.trace { "traced" } else { "timed" }
            );
            for l in &out.report {
                println!("  {l}");
            }
            println!("{line}");
            if out.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("explore_bench: {e}");
            std::process::exit(1);
        }
    }
}
