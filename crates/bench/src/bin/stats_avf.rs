//! Static-vs-dynamic vulnerability cross-check: the `fracas-analyze`
//! liveness model's per-register static AVF (fraction of committed
//! cycles each register is live) correlated against the measured
//! per-register criticality of the injection campaigns, per scenario.
//!
//! A positive AVF↔crash correlation (and the mirror-image negative
//! AVF↔masked correlation) is the sanity check that the ACE-style
//! static analysis ranks registers the same way real injections do.

use fracas::analyze::{static_avf, Cfg, Liveness, StaticAvf};
use fracas::inject::{golden_trace, Workload};
use fracas::isa::IsaKind;
use fracas::mine::{pearson, register_criticality, Database, RegisterCriticality};
use fracas::npb::{Model, Scenario};

/// Serial single-core scenarios of one ISA: the cheapest golden runs,
/// and the configuration where static liveness is most comparable to
/// the dynamic outcomes (no scheduler interleaving across cores).
fn scenarios(isa: IsaKind) -> Vec<Scenario> {
    Scenario::all()
        .into_iter()
        .filter(|s| s.isa == isa && s.model == Model::Serial && s.cores == 1)
        .collect()
}

/// Computes the static AVF of one scenario from a traced golden run.
fn analyze_scenario(scenario: &Scenario) -> StaticAvf {
    let workload = Workload::from_scenario(scenario).expect("bundled scenario builds");
    let (_, trace) = golden_trace(&workload);
    let cfg = Cfg::recover(workload.image.isa, &workload.image.text);
    let liveness = Liveness::compute(&cfg, &workload.image.text);
    static_avf(
        workload.image.isa,
        &liveness,
        workload.image.text_base,
        &trace,
    )
}

/// Pearson r between static AVF and a dynamic per-register statistic,
/// over the registers the campaign actually hit.
fn correlate(
    avf: &StaticAvf,
    crit: &[RegisterCriticality],
    stat: impl Fn(&RegisterCriticality) -> f64,
) -> f64 {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for c in crit.iter().filter(|c| c.hits > 0) {
        xs.push(avf.gprs[c.reg as usize]);
        ys.push(stat(c));
    }
    pearson(&xs, &ys)
}

fn main() {
    for isa in IsaKind::ALL {
        let scenarios = scenarios(isa);
        let db = fracas_bench::ensure_db(&scenarios);
        println!(
            "{isa} ({}) — static AVF vs dynamic register criticality:",
            isa.analogue()
        );
        println!(
            "{:<18} {:>9} {:>12} {:>13}",
            "Scenario", "mean AVF", "r(AVF,crash)", "r(AVF,masked)"
        );
        let mut crash_rs = Vec::new();
        for scenario in &scenarios {
            let avf = analyze_scenario(scenario);
            let campaign = db
                .get(scenario)
                .expect("ensure_db swept this scenario")
                .clone();
            let crit = register_criticality(&Database::from_campaigns(vec![campaign]), isa);
            let mean = avf.gprs.iter().sum::<f64>() / avf.gprs.len() as f64;
            let r_crash = correlate(&avf, &crit, RegisterCriticality::crash_rate);
            let r_masked = correlate(&avf, &crit, |c| c.masked as f64 / c.hits as f64);
            println!(
                "{:<18} {:>8.1}% {:>12.2} {:>13.2}",
                scenario.id(),
                mean * 100.0,
                r_crash,
                r_masked
            );
            crash_rs.push(r_crash);
        }
        let mean_r = crash_rs.iter().sum::<f64>() / crash_rs.len() as f64;
        println!(
            "mean r(AVF,crash) over {} scenarios: {mean_r:.2}",
            crash_rs.len()
        );
        println!();
    }
    println!(
        "Expected pattern: live registers crash, dead registers mask — the\n\
         static ranking should agree with the injections (positive crash\n\
         correlation, negative masked correlation) on most scenarios."
    );
}
