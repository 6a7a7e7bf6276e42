//! Interpreter-throughput baseline: times the EP golden run and records
//! committed guest instructions per host second in
//! `BENCH_interpreter.json`.
//!
//! ```text
//! bench_interpreter [--isa sira32|sira64] [--model ser|omp|mpi] [--app NAME]
//!                   [--cores N] [--reps N] [--min-ms N] [--out PATH]
//!                   [--gate PATH]
//! ```
//!
//! Defaults to `--app ep` (both ISAs, every model/core count): EP is
//! embarrassingly parallel with a tiny memory footprint, so its golden
//! run is interpreter-bound and the steps/sec figure tracks raw
//! dispatch cost rather than cache modelling.
//!
//! Measurement protocol (the trustworthy-throughput half of the bench):
//!
//! - **Minimum wall time per repetition.** A single short golden run is
//!   dominated by timer granularity and scheduling noise; each rep
//!   repeats the golden run until at least `--min-ms` (default 250)
//!   of wall time has accumulated and reports the aggregate rate.
//! - **Warmup rep discarded.** The first rep pays one-time costs (page
//!   faults, frequency ramp, cold caches) and is thrown away.
//! - **Median of reps.** The median of `--reps` (default 5) measured
//!   reps is kept — robust against a stray descheduling spike in either
//!   direction, unlike best-of (optimistic) or mean (skewed by tails).
//! - **Provenance stamping.** The JSON records the git revision and
//!   rustc version that produced it, so a committed baseline can be
//!   audited ("what exactly produced this 18.4 Minst/s?").
//!
//! The effect checker is forced off so the number measures the
//! production fast path. With `--gate PATH` the run compares its
//! aggregate against the `aggregate_steps_per_sec` recorded in an
//! earlier JSON (the committed baseline) and fails — exit code 1 —
//! on a regression of more than 10%, giving CI a perf trend gate.
//! Each scenario is additionally gated against its own baseline row at
//! a looser 25% tolerance: a single scenario can crater (say, a store
//! path regression that only bites the memory-heavy configuration)
//! while enough others improve to keep the aggregate green. Scenarios
//! absent from the baseline file are skipped, so widening the matrix
//! does not require regenerating the baseline first.

use fracas::inject::{golden_run, Workload};
use fracas::npb::App;
use fracas_bench::cli::{Parser, ScenarioFilter};
use std::process::Command;
use std::time::Instant;

const USAGE: &str = "bench_interpreter [--isa sira32|sira64] [--model ser|omp|mpi] [--app NAME]\n\
     \u{20}                 [--cores N] [--reps N] [--min-ms N] [--out PATH] [--gate PATH]";

/// Largest tolerated drop of `aggregate_steps_per_sec` vs the gate
/// baseline before the run fails.
const GATE_TOLERANCE: f64 = 0.10;

/// Largest tolerated drop of a single scenario's `steps_per_sec` vs its
/// baseline row. Looser than the aggregate gate: per-scenario medians
/// carry more noise than the pooled rate, and the gate's job is to
/// catch a configuration-specific cratering, not a wobble.
const SCENARIO_TOLERANCE: f64 = 0.25;

/// One measured repetition: golden-runs the workload until `min_ms` of
/// wall time has accumulated, returning (instructions, seconds).
fn one_rep(workload: &Workload, min_ms: u64) -> (u64, f64) {
    let mut insts = 0u64;
    let start = Instant::now();
    loop {
        let (report, _) = golden_run(workload);
        insts += report.total_instructions();
        let secs = start.elapsed().as_secs_f64();
        if secs * 1e3 >= min_ms as f64 {
            return (insts, secs);
        }
    }
}

/// First line of a command's stdout, or "unknown" if it cannot run
/// (e.g. no git binary or not a work tree — the bench still works).
fn probe(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_owned))
        })
        .unwrap_or_else(|| String::from("unknown"))
}

/// Extracts the number following `key` in `text` (the files are
/// produced by this binary, so a full JSON parser is overkill).
fn number_after(text: &str, key: &str) -> Option<f64> {
    let rest = text[text.find(key)? + key.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pulls `"aggregate_steps_per_sec": <number>` out of a baseline JSON.
fn baseline_rate(text: &str, path: &str) -> f64 {
    number_after(text, "\"aggregate_steps_per_sec\":")
        .unwrap_or_else(|| panic!("{path}: no usable aggregate_steps_per_sec field"))
}

/// Pulls scenario `id`'s `steps_per_sec` row out of a baseline JSON,
/// or `None` when the baseline predates the scenario.
fn baseline_scenario_rate(text: &str, id: &str) -> Option<f64> {
    let at = text.find(&format!("\"scenario\": \"{id}\""))?;
    let end = at + text[at..].find('}')?;
    number_after(&text[at..end], "\"steps_per_sec\":")
}

fn main() {
    let mut filter = ScenarioFilter::default();
    let mut reps: usize = 5;
    let mut min_ms: u64 = 250;
    let mut out = String::from("BENCH_interpreter.json");
    let mut gate: Option<String> = None;
    let mut p = Parser::new(USAGE);
    while let Some(flag) = p.next_flag() {
        if filter.accept(&mut p, &flag) {
            continue;
        }
        match flag.as_str() {
            "--reps" => reps = p.parsed(&flag),
            "--min-ms" => min_ms = p.parsed(&flag),
            "--out" => out = p.value(&flag),
            "--gate" => gate = Some(p.value(&flag)),
            other => p.unknown(other),
        }
    }
    if filter.app.is_none() {
        filter.app = Some(App::Ep);
    }
    let scenarios = filter.scenarios();
    let reps = reps.max(1);

    let mut rows = Vec::new();
    let mut rates: Vec<(String, f64)> = Vec::new();
    let (mut total_insts, mut total_secs) = (0u64, 0f64);
    for s in &scenarios {
        let workload = Workload::from_scenario(s).unwrap_or_else(|e| panic!("{}: {e}", s.id()));
        // Warmup rep: same work as a measured rep, result discarded.
        let _ = one_rep(&workload, min_ms);
        let mut measured: Vec<(u64, f64)> = (0..reps).map(|_| one_rep(&workload, min_ms)).collect();
        measured.sort_by(|a, b| {
            let ra = a.0 as f64 / a.1;
            let rb = b.0 as f64 / b.1;
            ra.partial_cmp(&rb).expect("rates are finite")
        });
        let (insts, secs) = measured[measured.len() / 2];
        let rate = insts as f64 / secs;
        eprintln!(
            "  {}: {insts} instructions in {secs:.3}s = {:.2} Minst/s (median of {reps})",
            s.id(),
            rate / 1e6
        );
        total_insts += insts;
        total_secs += secs;
        rows.push(format!(
            "    {{\"scenario\": \"{}\", \"instructions\": {insts}, \"seconds\": {secs:.6}, \"steps_per_sec\": {rate:.0}}}",
            s.id()
        ));
        rates.push((s.id(), rate));
    }
    let aggregate = total_insts as f64 / total_secs;
    let git_rev = probe("git", &["rev-parse", "--short", "HEAD"]);
    let rustc = probe("rustc", &["--version"]);
    // Hand-rolled JSON: scalar provenance fields and an array of flat
    // per-scenario records.
    let json = format!(
        "{{\n  \"bench\": \"interpreter_golden_run\",\n  \"git_rev\": \"{git_rev}\",\n  \
         \"rustc\": \"{rustc}\",\n  \"reps\": {reps},\n  \"min_ms\": {min_ms},\n  \
         \"aggregate_steps_per_sec\": {aggregate:.0},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!(
        "interpreter: {:.2} Minst/s aggregate over {} scenario(s) -> {out}",
        aggregate / 1e6,
        scenarios.len()
    );

    if let Some(base_path) = gate {
        let text =
            std::fs::read_to_string(&base_path).unwrap_or_else(|e| panic!("read {base_path}: {e}"));
        let base = baseline_rate(&text, &base_path);
        let floor = base * (1.0 - GATE_TOLERANCE);
        let mut failed = false;
        if aggregate < floor {
            eprintln!(
                "REGRESSION: {:.2} Minst/s is below the gate floor {:.2} Minst/s \
                 (baseline {:.2} from {base_path})",
                aggregate / 1e6,
                floor / 1e6,
                base / 1e6
            );
            failed = true;
        }
        for (id, rate) in &rates {
            let Some(base) = baseline_scenario_rate(&text, id) else {
                eprintln!("gate: {id} has no baseline row, skipped");
                continue;
            };
            let floor = base * (1.0 - SCENARIO_TOLERANCE);
            if *rate < floor {
                eprintln!(
                    "REGRESSION: {id}: {:.2} Minst/s is below its scenario floor {:.2} \
                     Minst/s (baseline {:.2} from {base_path})",
                    rate / 1e6,
                    floor / 1e6,
                    base / 1e6
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "gate: {:.2} Minst/s >= floor {:.2} Minst/s (baseline {:.2} from {base_path}), \
             {} scenario row(s) within {:.0}%",
            aggregate / 1e6,
            floor / 1e6,
            base / 1e6,
            rates.len(),
            SCENARIO_TOLERANCE * 100.0
        );
    }
}
