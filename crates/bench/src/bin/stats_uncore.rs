//! Uncore fault-model report: measured outcome composition of the
//! cache-metadata, kernel-control, instruction-skip, store-buffer and
//! cache-data fault spaces, per scenario, against the
//! architectural-register baseline — plus the skip-severity cross-check
//! (static [`SkipClass`] prediction vs the measured masking rate) and
//! the accounting gate that proves no uncore fault ever falls through
//! the prune layer silently.
//!
//! ```text
//! stats_uncore [--isa ...] [--model ...] [--app NAME] [--cores N]
//!              [--faults N] [--seed N]
//! ```
//!
//! Defaults to the paper's EP programming-model × ISA matrix (pass
//! `--app` to override). One class-pruned fleet sweep over every
//! selected scenario *per domain* — a combined space would be useless
//! here, because the L2 metadata bits outnumber the skip bits five
//! orders of magnitude and uniform sampling would never draw a skip —
//! plus one over the register baseline; each sweep overlaps its
//! scenarios in the fleet's shared worker pool. Accounting violations
//! fail the run with exit status 1; this is the CI hook behind the
//! "no silent `None`" guarantee:
//!
//! * every uncore fault is either statically decided (provably never
//!   applied → Vanished) or counted under its registry domain in the
//!   class statistics' unmodeled counts
//!   ([`UnmodeledCounts`](fracas::inject::UnmodeledCounts));
//! * no uncore fault is counted under another domain than the
//!   campaign's own;
//! * no harness anomalies anywhere;
//! * no domain is *vacuous* — a domain whose sampled faults all come
//!   back Vanished over a nonzero aggregate sample cannot distinguish
//!   anything and its rows are meaningless, unless it is on the
//!   documented expected-quiet allowlist (cache metadata: timing-only
//!   by design; kernel-control: measured non-masking rate below smoke
//!   sample resolution).

use fracas::analyze::{analyze_skips, skip_class, PruneOracle, SkipClass, SkipComposition};
use fracas::inject::domain::{CACHE, CACHEDATA, KERNELCTL, SKIP, STOREBUF};
use fracas::inject::{
    golden_trace, run_fleet, CampaignConfig, CampaignResult, ClassStats, Domain, FaultSpace,
    FaultTarget, FleetConfig, Outcome, Tally, Workload,
};
use fracas::mine::labeled_outcome_table;
use fracas::npb::App;
use fracas_bench::cli::{Parser, SweepOpts};
use std::time::Instant;

const USAGE: &str = "stats_uncore [--isa sira32|sira64] [--model ser|omp|mpi] [--app NAME] \
     [--cores N] [--faults N] [--seed N]";

/// The registry domains under report, display order, with their
/// masking-rate column labels.
static UNCORE: [(&Domain, &str); 5] = [
    (&CACHE, "cache%"),
    (&KERNELCTL, "kctl%"),
    (&SKIP, "skip%"),
    (&STOREBUF, "sbuf%"),
    (&CACHEDATA, "cdata%"),
];

/// Domains documented as expected-quiet, with the reason: for these a
/// 100%-Vanished aggregate at smoke sample sizes is the *expected*
/// result, not a vacuity violation. Cache metadata is timing-only by
/// design; kernel-control's measured non-masking rate (~0.1% UT — one
/// resurrected-waiter stall per ~1k faults) is real but far below what
/// a smoke sample can be required to exhibit deterministically. Every
/// other domain must show life or the gate fails — the check that
/// caught the cache-data dilution regression.
static EXPECTED_QUIET: [(&Domain, &str); 2] = [
    (
        &CACHE,
        "timing-only metadata: values live in the L1D/store-buffer layers",
    ),
    (
        &KERNELCTL,
        "measured ~0.1% UT rate, below smoke-sample resolution",
    ),
];

fn main() {
    let mut opts = SweepOpts::default();
    let mut p = Parser::new(USAGE);
    while let Some(flag) = p.next_flag() {
        if opts.filter.accept(&mut p, &flag) {
            continue;
        }
        match flag.as_str() {
            "--faults" => opts.faults = Some(p.parsed(&flag)),
            "--seed" => opts.seed = Some(p.parsed(&flag)),
            other => p.unknown(other),
        }
    }
    if opts.filter.app.is_none() {
        opts.filter.app = Some(App::Ep);
    }
    let mut base = opts.config(USAGE).fleet.campaign;
    base.prune_classes = true;
    let scenarios = opts.filter.scenarios();
    eprintln!(
        "uncore campaigns over {} scenario(s), {} domains x {} faults each (seed {})...",
        scenarios.len(),
        UNCORE.len(),
        base.faults,
        base.seed
    );
    let start = Instant::now();
    let workloads: Vec<Workload> = scenarios
        .iter()
        .map(|s| Workload::from_scenario(s).unwrap_or_else(|e| panic!("{}: {e}", s.id())))
        .collect();
    // One fleet sweep per fault space over every scenario: campaign
    // `i` of a sweep is scenario `i`'s.
    let sweep = |space: FaultSpace| -> Vec<CampaignResult> {
        let campaign = CampaignConfig {
            space,
            ..base.clone()
        };
        run_fleet(
            &workloads,
            &FleetConfig {
                campaign,
                ..FleetConfig::default()
            },
        )
    };
    let reg_sweep = sweep(FaultSpace::default());
    let uncore_sweeps: Vec<Vec<CampaignResult>> = UNCORE
        .iter()
        .map(|(domain, _)| sweep(FaultSpace::only(domain.name)))
        .collect();
    let mut header = format!("{:<22} {:>5} |", "scenario", "flts");
    for (_, label) in UNCORE {
        header.push_str(&format!(" {label:>6}"));
    }
    header.push_str(&format!(" | {:>6} | {:>5} {:>5}", "r-msk%", "dec", "unm"));
    println!("{header}");
    // Aggregates across scenarios: per-domain outcome tallies, the
    // register baseline, skip severity, and the collapse accounting.
    let mut domain_tallies = [Tally::default(); UNCORE.len()];
    let mut reg_tally = Tally::default();
    let mut static_skips = SkipComposition::default();
    let mut measured_skips = SkipComposition::default();
    let mut masked_skips = SkipComposition::default();
    let mut unapplied_skips: u64 = 0;
    let mut summary = ClassStats::default();
    let mut violations: Vec<String> = Vec::new();
    for (i, (s, workload)) in scenarios.iter().zip(&workloads).enumerate() {
        let image = &workload.image;
        let reg = &reg_sweep[i];
        if reg.tally.anomaly != 0 {
            violations.push(format!("{}: register-baseline anomaly outcomes", s.id()));
        }
        fold_tally(&mut reg_tally, &reg.tally);
        // The skip campaign maps its records back to the dropped
        // instructions through the golden trace.
        let (_, trace) = golden_trace(workload);
        let oracle = PruneOracle::new(image.isa, &image.text, image.text_base, &trace);
        let mut row = Vec::new();
        let mut decided = 0;
        let mut unmodeled = 0;
        for (((domain, _), results), total) in UNCORE
            .iter()
            .zip(&uncore_sweeps)
            .zip(domain_tallies.iter_mut())
        {
            let name = domain.name;
            let result = &results[i];
            let stats = result.classes.expect("class-pruned campaign carries stats");
            summary.merge(&stats);
            // Accounting gate: decided + unmodeled must cover the whole
            // sample, with every unmodeled fault under the campaign's
            // own domain.
            if u64::from(stats.decided + stats.unmodeled.total()) != result.tally.total() {
                violations.push(format!(
                    "{}/{name}: {} decided + {} unmodeled != {} faults — a fault fell through",
                    s.id(),
                    stats.decided,
                    stats.unmodeled.total(),
                    result.tally.total()
                ));
            }
            let foreign = stats.unmodeled.total() - stats.unmodeled.count(domain);
            if foreign != 0 {
                violations.push(format!(
                    "{}/{name}: {foreign} fault(s) unmodeled under other domains: {}",
                    s.id(),
                    stats.unmodeled.breakdown()
                ));
            }
            if result.tally.anomaly != 0 {
                violations.push(format!("{}/{name}: harness anomaly outcomes", s.id()));
            }
            for r in &result.records {
                if !matches!(r.fault.target, FaultTarget::InstrSkip { .. }) {
                    continue;
                }
                match oracle.skipped_pc(r.fault.timing_core(), r.fault.cycle) {
                    Some(pc) => {
                        let word = ((pc - image.text_base) / 4) as usize;
                        let class = skip_class(image.isa, &image.text[word]);
                        measured_skips.record(class);
                        if r.outcome.is_masked() {
                            masked_skips.record(class);
                        }
                    }
                    // The timing core halted first: never applied,
                    // decided Vanished by the static landing rule.
                    None => unapplied_skips += 1,
                }
            }
            row.push(result.tally.masking_rate() * 100.0);
            decided += stats.decided;
            unmodeled += stats.unmodeled.total();
            fold_tally(total, &result.tally);
        }
        static_skips = fold_composition(static_skips, &analyze_skips(image.isa, &image.text));
        let mut line = format!("{:<22} {:>5} |", s.id(), base.faults * UNCORE.len());
        for rate in &row {
            line.push_str(&format!(" {rate:>5.1}%"));
        }
        line.push_str(&format!(
            " | {:>5.1}% | {:>5} {:>5}",
            reg.tally.masking_rate() * 100.0,
            decided,
            unmodeled,
        ));
        println!("{line}");
    }
    // The vacuity gate, over the *aggregate* per-domain tallies (a
    // single scenario can legitimately come back all-Vanished at small
    // sample sizes; every scenario doing so means the domain cannot
    // produce an SDC at all — PR 9's cache-metadata regression).
    for ((domain, _), tally) in UNCORE.iter().zip(&domain_tallies) {
        let (name, total) = (domain.name, tally.total());
        if total == 0 || tally.count(Outcome::Vanished) != total {
            continue;
        }
        if let Some((_, why)) = EXPECTED_QUIET.iter().find(|(d, _)| d == domain) {
            eprintln!(
                "note: domain {name} is 100% Vanished over {total} fault(s) — allowlisted: {why}"
            );
        } else {
            violations.push(format!(
                "domain {name}: all {total} sampled fault(s) Vanished across every \
                 scenario — the domain is vacuous as a reliability instrument"
            ));
        }
    }
    println!();
    let mut rows: Vec<(String, Tally)> = UNCORE
        .iter()
        .zip(domain_tallies)
        .map(|((domain, _), tally)| (domain.name.to_string(), tally))
        .collect();
    rows.push(("register".to_string(), reg_tally));
    print!("{}", labeled_outcome_table(&rows));
    println!();
    println!(
        "{:<8} {:>8} {:>9} {:>7}   (skip severity: static share vs measured masking)",
        "class", "static%", "sampled", "mask%"
    );
    for class in SkipClass::ALL {
        let n = measured_skips.count(class);
        #[allow(clippy::cast_precision_loss)]
        let masked_pct = if n == 0 {
            0.0
        } else {
            100.0 * masked_skips.count(class) as f64 / n as f64
        };
        println!(
            "{:<8} {:>7.1}% {:>9} {:>6.1}%",
            class.name(),
            static_skips.fraction(class) * 100.0,
            n,
            masked_pct,
        );
    }
    println!(
        "skips: {} applied + {} unapplied (statically Vanished); \
         uncore: {:.1}% decided, unmodeled buckets {}",
        measured_skips.total(),
        unapplied_skips,
        summary.decided_fraction() * 100.0,
        if summary.unmodeled.total() == 0 {
            "empty".to_string()
        } else {
            summary.unmodeled.breakdown()
        },
    );
    eprintln!("measured in {:.1}s", start.elapsed().as_secs_f64());
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("VIOLATION: {v}");
        }
        eprintln!("{} accounting violation(s)", violations.len());
        std::process::exit(1);
    }
    eprintln!("accounting clean");
}

/// Adds `from` into `into`, outcome by outcome.
fn fold_tally(into: &mut Tally, from: &Tally) {
    for outcome in Outcome::ALL_WITH_ANOMALY {
        into.record_weighted(outcome, from.count(outcome));
    }
}

/// Sums two skip compositions class by class.
fn fold_composition(mut into: SkipComposition, from: &SkipComposition) -> SkipComposition {
    for class in SkipClass::ALL {
        for _ in 0..from.count(class) {
            into.record(class);
        }
    }
    into
}
