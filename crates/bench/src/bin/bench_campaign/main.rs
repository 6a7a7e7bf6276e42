//! `bench_campaign`: the campaign benchmark. Each workload is a fixed
//! sweep (scenarios, faults per scenario, fault space, pruning mode);
//! one run measures it end to end, or layer by layer with `--trace 1`.
//! README.md next to this file explains the workloads and metrics.
//!
//! ```text
//! bench_campaign --workload NAME [--seed N] [--seconds S] [--threads N] [--trace 0|1]
//! ```
//!
//! Build and run it from the repository root with
//! `cargo run --release -p fracas-bench --bin bench_campaign -- --workload ep32-full`.
//!
//! Untraced, a run repeats rounds for `--seconds`. A round builds the
//! workloads, then runs the campaign: the fleet into a record sink, then
//! the database write, which is the work `fracas_bench::run_sweep` does.
//! Every round runs the same campaigns at `--seed`, and every round's
//! database must equal the first round's. The metrics are medians over
//! the rounds. At the default seed the first round's database must match
//! the digest pinned in the workload table.
//!
//! With `--trace 1` a run alternates the untraced fleet at one thread
//! with the traced driver (`driver.rs`) over the same campaigns, checks
//! that both produce identical records and that the driver's spans
//! cover its wall time, and reports per-layer metrics.
//!
//! Every line of standard output is `name value unit` except the
//! `db_digest` line and the last, which is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A run whose output is
//! wrong exits with 1.

mod driver;

use driver::{time, Trace};
use fracas::inject::{
    run_fleet_with_sink, CampaignConfig, CampaignResult, FaultSpace, FleetConfig, InjectionRecord,
    Tally, Workload,
};
use fracas::isa::IsaKind;
use fracas::mine::Database;
use fracas::npb::{App, Scenario};
use fracas_bench::cli::Parser;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str =
    "bench_campaign --workload NAME [--seed N] [--seconds S] [--threads N] [--trace 0|1]";

/// Least wall time of one `setup_s` sample. A single build takes only
/// milliseconds, so a sample repeats the build until this has passed.
const SETUP_SAMPLE_S: f64 = 0.1;

/// Least share of the traced wall time the layer spans must cover.
const MIN_COVERAGE: f64 = 0.98;

/// One declared workload.
struct Spec {
    name: &'static str,
    /// In [`Scenario::all`] order.
    scenarios: Vec<Scenario>,
    /// Faults per scenario.
    faults: usize,
    space: FaultSpace,
    prune_classes: bool,
    /// FNV-1a-64 of the database bytes at the default seed.
    digest: u64,
}

/// The declared workloads. README.md gives the reason for each.
fn specs() -> Vec<Spec> {
    let pick = |keep: &dyn Fn(&Scenario) -> bool| -> Vec<Scenario> {
        Scenario::all().into_iter().filter(|s| keep(s)).collect()
    };
    const MIXED_TEXT: [&str; 8] = [
        "is-mpi-4-sira64",
        "cg-omp-4-sira64",
        "dt-mpi-4-sira64",
        "dc-omp-2-sira64",
        "ua-omp-4-sira64",
        "mg-mpi-2-sira64",
        "is-mpi-2-sira32",
        "dc-ser-1-sira32",
    ];
    vec![
        Spec {
            name: "matrix64-classes",
            scenarios: pick(&|s| s.isa == IsaKind::Sira64)
                .into_iter()
                .step_by(3)
                .collect(),
            faults: 100,
            space: FaultSpace::default(),
            prune_classes: true,
            digest: 0xf0d7_7d37_33aa_b125,
        },
        Spec {
            name: "ep32-full",
            scenarios: pick(&|s| s.isa == IsaKind::Sira32 && s.app == App::Ep),
            faults: 64,
            space: FaultSpace::default(),
            prune_classes: false,
            digest: 0x3ec2_c8b6_51cf_75fb,
        },
        Spec {
            name: "ep64-classes-8k",
            scenarios: pick(&|s| matches!(s.id().as_str(), "ep-ser-1-sira64" | "ep-mpi-4-sira64")),
            faults: 8000,
            space: FaultSpace::default(),
            prune_classes: true,
            digest: 0x1473_753d_f51f_bcfa,
        },
        Spec {
            name: "mixed-text",
            scenarios: pick(&|s| MIXED_TEXT.contains(&s.id().as_str())),
            faults: 800,
            space: FaultSpace::only("text"),
            prune_classes: true,
            digest: 0x7d8d_d5a0_c6a1_7cfe,
        },
    ]
}

/// The command line.
struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    threads: usize,
    trace: bool,
}

impl Args {
    fn parse() -> Args {
        let mut p = Parser::new(USAGE);
        let (mut workload, mut threads) = (None, None);
        let mut seed = CampaignConfig::default().seed;
        let mut seconds: f64 = 25.0;
        let mut trace: u8 = 0;
        while let Some(flag) = p.next_flag() {
            match flag.as_str() {
                "--workload" => workload = Some(p.value(&flag)),
                "--seed" => seed = p.parsed(&flag),
                "--seconds" => seconds = p.parsed(&flag),
                "--threads" => threads = Some(p.parsed::<usize>(&flag)),
                "--trace" => trace = p.parsed(&flag),
                other => p.unknown(other),
            }
        }
        let Some(spec) = workload.and_then(|w| specs().into_iter().find(|s| s.name == w)) else {
            eprintln!(
                "--workload must be one of: {}",
                specs()
                    .iter()
                    .map(|s| s.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            p.usage()
        };
        if trace > 1 || !seconds.is_finite() || seconds < 0.0 {
            p.usage()
        }
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        Args {
            spec,
            seed,
            seconds,
            threads: threads.unwrap_or(cores).clamp(1, cores),
            trace: trace == 1,
        }
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What a run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// A directory for the record sink and the database next to this
/// executable, in the build directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> io::Result<Scratch> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .ok_or_else(|| io::Error::other("the executable has no directory"))?
            .join(format!("bench_campaign_tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    // Measure the production fast path even under an environment that
    // exports the effect checker.
    std::env::remove_var("FRACAS_CHECK_EFFECTS");
    let args = Args::parse();
    let outcome = Scratch::new().and_then(|scratch| {
        if args.trace {
            traced(&args.spec, args.seed, args.seconds, &scratch)
        } else {
            measure(&args.spec, args.seed, args.seconds, args.threads, &scratch)
        }
    });
    match outcome {
        Ok(outcome) => {
            print(&outcome);
            std::process::exit(if outcome.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("bench_campaign: {e}");
            std::process::exit(1);
        }
    }
}

/// The explicit campaign configuration of `spec` (never read from the
/// environment).
fn fleet_config(spec: &Spec, seed: u64, threads: usize) -> FleetConfig {
    FleetConfig {
        campaign: CampaignConfig {
            faults: spec.faults,
            seed,
            threads,
            space: spec.space,
            prune_classes: spec.prune_classes,
            ..CampaignConfig::default()
        },
        ..FleetConfig::default()
    }
}

/// Builds the workloads (compile, runtime link, image) of `spec`.
fn build(spec: &Spec) -> Vec<Workload> {
    spec.scenarios
        .iter()
        .map(|s| Workload::from_scenario(s).unwrap_or_else(|e| panic!("{}: {e}", s.id())))
        .collect()
}

/// One `setup_s` sample: builds the workloads of `spec` again and again
/// for at least [`SETUP_SAMPLE_S`], and returns the last build and the
/// mean time per build.
fn set_up(spec: &Spec) -> (Vec<Workload>, f64) {
    let start = Instant::now();
    let mut builds = 0u32;
    loop {
        let workloads = build(spec);
        builds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= SETUP_SAMPLE_S {
            return (workloads, elapsed / f64::from(builds));
        }
    }
}

/// The measured unit of work: the fleet into a fresh record sink, then
/// the database write. Returns the database and its bytes.
fn campaign(
    workloads: &[Workload],
    config: &FleetConfig,
    dir: &Scratch,
) -> io::Result<(Database, String)> {
    let sink = dir.join("sink.jsonl");
    let db = Database::from_campaigns(run_fleet_with_sink(workloads, config, &sink)?);
    let text = db.to_json_lines();
    std::fs::write(dir.join("db.jsonl"), &text)?;
    std::fs::remove_file(&sink)?;
    Ok((db, text))
}

/// Whether another round fits: always the first, then only while the
/// last round's length still fits in `seconds`.
fn another_round(start: Instant, last: Option<f64>, seconds: f64) -> bool {
    last.is_none_or(|last| start.elapsed().as_secs_f64() + last <= seconds)
}

/// Injections recorded and injections that ended as harness anomalies.
fn count(db: &Database) -> (u64, u64) {
    db.iter().fold((0, 0), |(n, bad), c| {
        (n + c.tally.total(), bad + c.tally.anomaly)
    })
}

/// Checks one round's database. The first round's is printed, for
/// comparing runs, and must match the pinned digest when the seed is the
/// one it was pinned at. Every later round's must equal the first's.
fn digest_ok(spec: &Spec, seed: u64, first: &mut Option<u64>, text: &str) -> bool {
    let digest = fnv1a(text.as_bytes());
    let expected = match *first {
        Some(first) => Some(first),
        None => {
            println!("db_digest {digest:016x}");
            *first = Some(digest);
            (seed == CampaignConfig::default().seed).then_some(spec.digest)
        }
    };
    let ok = expected.is_none_or(|e| e == digest);
    if !ok {
        eprintln!(
            "{}: database digest {digest:016x}, expected {:016x}",
            spec.name,
            expected.unwrap_or_default()
        );
    }
    ok
}

/// An untraced run: rounds of set-up and campaign for `seconds`.
fn measure(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    threads: usize,
    scratch: &Scratch,
) -> io::Result<Outcome> {
    let (mut setups, mut walls, mut cpus, mut rss) = (vec![], vec![], vec![], vec![]);
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let config = fleet_config(spec, seed, threads);
    let (start, mut last, mut first) = (Instant::now(), None, None);
    while another_round(start, last, seconds) {
        let round = Instant::now();
        let (workloads, setup) = set_up(spec);
        setups.push(setup);
        reset_peak_rss();
        let cpu = cpu_seconds()?;
        let wall = Instant::now();
        let (db, text) = campaign(&workloads, &config, scratch)?;
        walls.push(wall.elapsed().as_secs_f64());
        cpus.push(cpu_seconds()? - cpu);
        rss.push(peak_rss_mb()?);
        let (n, bad) = count(&db);
        attempted += n;
        failed += bad;
        correct &= digest_ok(spec, seed, &mut first, &text);
        last = Some(round.elapsed().as_secs_f64());
    }
    let campaign_s = quantile(&walls, 0.5);
    let per_round = (attempted / walls.len() as u64) as f64;
    eprintln!("{} rounds of {per_round} injections", walls.len());
    Ok(Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("setup_s", quantile(&setups, 0.5), "s"),
            ("campaign_s", campaign_s, "s"),
            ("inj_per_s", per_round / campaign_s, "inj/s"),
            ("cpu_s", quantile(&cpus, 0.5), "s"),
            ("peak_rss_mb", quantile(&rss, 0.5), "MB"),
        ],
    })
}

/// A traced run: alternates the untraced fleet at one thread with the
/// traced driver for `seconds` and checks that they agree.
fn traced(spec: &Spec, seed: u64, seconds: f64, scratch: &Scratch) -> io::Result<Outcome> {
    let config = fleet_config(spec, seed, 1);
    let mut t = Trace::default();
    let workloads = time(&mut t.build_s, || build(spec));
    t.images = workloads.len() as u64;
    let (mut passes, mut attempted, mut failed) = (0u64, 0, 0);
    let (mut identical, mut correct, mut first) = (true, true, None);
    let start = Instant::now();
    while another_round(
        start,
        (passes > 0).then(|| (t.fleet_1t_s + t.wall_s) / passes as f64),
        seconds,
    ) {
        let (fleet, text) = time(&mut t.fleet_1t_s, || campaign(&workloads, &config, scratch))?;
        correct &= digest_ok(spec, seed, &mut first, &text);
        let pass = Instant::now();
        let records: Vec<Vec<InjectionRecord>> = workloads
            .iter()
            .map(|w| driver::drive(w, &config.campaign, &mut t))
            .collect();
        let driven: Database = fleet
            .iter()
            .zip(records)
            .map(|(c, records)| CampaignResult {
                tally: tally(&records),
                records,
                ..c.clone()
            })
            .collect();
        t.sink_bytes += time(&mut t.sink_s, || -> io::Result<u64> {
            let text = driven.to_json_lines();
            std::fs::write(scratch.join("driven.jsonl"), &text)?;
            Ok(text.len() as u64)
        })?;
        t.wall_s += pass.elapsed().as_secs_f64();
        identical &= fleet.len() == driven.len()
            && fleet
                .iter()
                .zip(driven.iter())
                .all(|(a, b)| a.records == b.records);
        for db in [&fleet, &driven] {
            let (n, bad) = count(db);
            attempted += n;
            failed += bad;
        }
        passes += 1;
    }
    let coverage = ratio(t.covered_s(), t.wall_s);
    if !identical {
        eprintln!(
            "{}: the traced driver's records differ from the fleet's",
            spec.name
        );
    }
    if coverage < MIN_COVERAGE {
        eprintln!(
            "{}: spans cover {coverage:.4} of the traced wall time",
            spec.name
        );
    }
    Ok(Outcome {
        correct: correct && identical && coverage >= MIN_COVERAGE && failed == 0,
        attempted,
        failed,
        metrics: per_layer(&t, passes),
    })
}

/// The outcome tally of `records`.
fn tally(records: &[InjectionRecord]) -> Tally {
    let mut tally = Tally::default();
    for r in records {
        tally.record(r.outcome);
    }
    tally
}

/// The per-layer metrics of `passes` traced passes, per pass.
fn per_layer(t: &Trace, passes: u64) -> Vec<Metric> {
    let n = passes as f64;
    let per = |x: f64| x / n;
    let num = |x: u64| x as f64 / n;
    let minst = |x: u64| x as f64 / 1e6 / n;
    let lat = &t.latencies;
    // The highest percentile with at least ten samples beyond it.
    let p_hi = [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| lat.len() as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    vec![
        ("build.s", t.build_s, "s"),
        ("build.images", t.images as f64, "count"),
        ("golden.s", per(t.golden_s), "s"),
        ("golden.minst", minst(t.golden_inst), "Minst"),
        (
            "golden.minst_per_s",
            ratio(minst(t.golden_inst), per(t.golden_s)),
            "Minst/s",
        ),
        ("golden.checkpoints", num(t.checkpoints), "count"),
        ("trace.s", per(t.trace_s), "s"),
        ("trace.events", num(t.trace_events), "count"),
        ("plan.s", per(t.plan_s), "s"),
        (
            "plan.us_per_fault",
            ratio(t.plan_s * 1e6, t.plan_faults as f64),
            "us",
        ),
        (
            "plan.decided_frac",
            ratio(t.decided as f64, t.plan_faults as f64),
            "ratio",
        ),
        ("plan.live_classes", num(t.live_classes), "count"),
        ("plan.members", num(t.members), "count"),
        ("plan.singletons", num(t.singletons), "count"),
        ("restore.s", per(t.restore_s), "s"),
        ("restore.count", num(t.restores), "count"),
        ("restore.boots", num(t.boots), "count"),
        ("prefix.s", per(t.prefix_s), "s"),
        ("prefix.minst", minst(t.prefix_inst), "Minst"),
        ("flip.s", per(t.flip_s), "s"),
        ("reconverge.s", per(t.reconverge_s), "s"),
        ("reconverge.attempts", num(t.reconverge_attempts), "count"),
        (
            "reconverge.hit_frac",
            ratio(t.reconverge_hits as f64, t.reconverge_attempts as f64),
            "ratio",
        ),
        ("tail.s", per(t.tail_s), "s"),
        ("tail.minst", minst(t.tail_inst), "Minst"),
        (
            "tail.minst_per_s",
            ratio(minst(t.tail_inst), per(t.tail_s)),
            "Minst/s",
        ),
        ("tail.hangs", num(t.hangs), "count"),
        ("classify.s", per(t.classify_s), "s"),
        ("synth.count", num(t.synthesized), "count"),
        ("sink.s", per(t.sink_s), "s"),
        ("sink.bytes", num(t.sink_bytes), "B"),
        (
            "executed_frac",
            ratio(t.executed as f64, t.records as f64),
            "ratio",
        ),
        ("inject.n", lat.len() as f64, "count"),
        ("inject.p50_ms", quantile(lat, 0.5) * 1e3, "ms"),
        ("inject.p_hi_ms", quantile(lat, p_hi / 100.0) * 1e3, "ms"),
        ("inject.p_hi_pct", p_hi, "%"),
        ("traced.wall_s", per(t.wall_s), "s"),
        ("traced.coverage", ratio(t.covered_s(), t.wall_s), "ratio"),
        ("traced.fleet_1t_s", per(t.fleet_1t_s), "s"),
        (
            "traced.overhead_frac",
            ratio(t.wall_s - t.fleet_1t_s, t.fleet_1t_s),
            "ratio",
        ),
    ]
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The `q` quantile (0..=1) of `values`, interpolating between the
/// closest ranks (0 when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(&last) = v.last() else {
        return 0.0;
    };
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    v.get(lo + 1)
        .map_or(last, |&hi| v[lo] + (pos - lo as f64) * (hi - v[lo]))
}

/// User plus system CPU time of this process, all threads, from
/// `/proc/self/stat` (Linux clock ticks of 1/100 s).
fn cpu_seconds() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || -> io::Result<f64> {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .map(|ticks| ticks as f64 / 100.0)
            .ok_or_else(|| io::Error::other("unparsable /proc/self/stat"))
    };
    Ok(tick()? + tick()?)
}

/// Resets the peak resident set size to the current one (Linux 4.0 and
/// later). Where that is not permitted the peak stays the process's
/// peak so far, which only overstates a round's peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Prints one `name value unit` line per metric, then the JSON result
/// line.
fn print(outcome: &Outcome) {
    for (name, value, unit) in &outcome.metrics {
        println!("{name} {value} {unit}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fracas::inject::run_fleet;

    /// A copy of `spec` cut down to its first two scenarios and 12
    /// faults each.
    fn scaled(spec: Spec) -> Spec {
        Spec {
            scenarios: spec.scenarios[..2].to_vec(),
            faults: 12,
            ..spec
        }
    }

    fn scenario(id: &str) -> Scenario {
        Scenario::all()
            .into_iter()
            .find(|s| s.id() == id)
            .unwrap_or_else(|| panic!("no scenario {id}"))
    }

    #[test]
    fn traced_driver_reproduces_fleet_records() {
        // Class members are rare at 12 faults; this campaign has some.
        let members = Spec {
            name: "members",
            scenarios: vec![scenario("is-ser-1-sira32")],
            faults: 50,
            space: FaultSpace::default(),
            prune_classes: true,
            digest: 0,
        };
        let mut t = Trace::default();
        for spec in specs().into_iter().map(scaled).chain([members]) {
            let config = fleet_config(&spec, 7, 2);
            let workloads = build(&spec);
            let fleet = run_fleet(&workloads, &config);
            for (w, result) in workloads.iter().zip(&fleet) {
                let records = driver::drive(w, &config.campaign, &mut t);
                assert_eq!(records, result.records, "{} {}", spec.name, w.id);
            }
        }
        assert!(t.members > 0, "no class member was synthesized");
    }

    #[test]
    fn untraced_database_equals_run_sweep() {
        for spec in specs().into_iter().map(scaled) {
            let config = fleet_config(&spec, 7, 2);
            let ours = Scratch::new().expect("scratch directory");
            let (_, text) = campaign(&build(&spec), &config, &ours).expect("campaign");
            let theirs = Scratch::new().expect("scratch directory");
            let db = theirs.join("db.jsonl");
            fracas_bench::run_sweep(&spec.scenarios, &config, &db, &theirs.join("sink"));
            let swept = std::fs::read_to_string(&db).expect("run_sweep writes its database");
            assert!(text == swept, "{}: databases differ", spec.name);
        }
    }

    /// The `(name, unit)` pairs one section of BENCHMARK.json declares
    /// (the unit is empty for workloads).
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("the section is an array")];
        let field = |entry: &str, key: &str| {
            entry
                .split_once(&format!("\"{key}\": \""))
                .map_or(String::new(), |(_, rest)| {
                    rest[..rest.find('"').expect("closing quote")].to_string()
                })
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn emitted_metrics_match_the_declaration() {
        let workloads: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(
            workloads,
            specs().iter().map(|s| s.name).collect::<Vec<_>>()
        );
        let spec = Spec {
            name: "tiny",
            scenarios: vec![scenario("ep-ser-1-sira64")],
            faults: 6,
            space: FaultSpace::default(),
            prune_classes: true,
            digest: 0,
        };
        let scratch = Scratch::new().expect("scratch directory");
        let untraced = measure(&spec, 7, 0.0, 1, &scratch).expect("untraced run");
        let traced = traced(&spec, 7, 0.0, &scratch).expect("traced run");
        assert!(untraced.correct && traced.correct);
        for (outcome, section) in [(untraced, "end_to_end"), (traced, "per_layer")] {
            let emitted: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
                .collect();
            for (name, _) in &emitted {
                assert!(
                    !name.is_empty()
                        && name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad metric name {name:?}"
                );
            }
            assert_eq!(declared(section), emitted, "{section}");
        }
    }
}
