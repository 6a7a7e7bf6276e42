//! Cross-layer data mining (the paper's §3.4 tool in miniature): run a
//! small campaign over several scenarios, then correlate profile metrics
//! (memory-instruction share, F*B index) with outcome rates.
//!
//! ```sh
//! cargo run --release --example mining_report
//! ```

use fracas::mine::{pearson, Database};
use fracas::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let isa = IsaKind::Sira64;
    let config = FleetConfig {
        campaign: CampaignConfig {
            faults: 80,
            ..CampaignConfig::default()
        },
        progress: true,
        ..FleetConfig::default()
    };

    // A small but varied slice of the suite.
    let scenarios: Vec<Scenario> = [
        Scenario::new(App::Is, Model::Serial, 1, isa),
        Scenario::new(App::Mg, Model::Serial, 1, isa),
        Scenario::new(App::Ep, Model::Serial, 1, isa),
        Scenario::new(App::Cg, Model::Serial, 1, isa),
        Scenario::new(App::Lu, Model::Serial, 1, isa),
        Scenario::new(App::Ft, Model::Serial, 1, isa),
        Scenario::new(App::Is, Model::Mpi, 4, isa),
        Scenario::new(App::Mg, Model::Mpi, 4, isa),
    ]
    .into_iter()
    .flatten()
    .collect();

    let db: Database = fracas::sweep_scenarios(&scenarios, &config)?;

    println!(
        "\n{:<18} {:>10} {:>8} {:>8} {:>8} {:>9}",
        "Scenario", "Mem inst%", "UT%", "Hang%", "Masked%", "F*B(1e9)"
    );
    let mut mem_share = Vec::new();
    let mut ut_rate = Vec::new();
    let mut fb = Vec::new();
    let mut hang = Vec::new();
    for c in db.iter() {
        let fxb = c.profile.calls as f64 * c.profile.branches as f64 / 1e9;
        println!(
            "{:<18} {:>10.1} {:>8.1} {:>8.1} {:>8.1} {:>9.3}",
            c.id,
            c.profile.mem_ratio * 100.0,
            c.tally.pct(Outcome::Ut),
            c.tally.pct(Outcome::Hang),
            c.tally.masking_rate() * 100.0,
            fxb,
        );
        mem_share.push(c.profile.mem_ratio);
        ut_rate.push(c.tally.pct(Outcome::Ut));
        fb.push(fxb);
        hang.push(c.tally.pct(Outcome::Hang));
    }

    println!();
    println!(
        "pearson(memory-instruction share, UT rate)   = {:+.2}   (paper 4.1.4: positive)",
        pearson(&mem_share, &ut_rate)
    );
    println!(
        "pearson(F*B index, Hang rate)                = {:+.2}   (paper 4.1.3: positive)",
        pearson(&fb, &hang)
    );
    Ok(())
}
