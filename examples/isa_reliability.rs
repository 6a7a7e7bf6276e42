//! ISA reliability comparison (the paper's §4.1 in miniature): run the
//! same FP-heavy benchmark on the ARMv7-like and ARMv8-like processor
//! models, show the softfloat instruction blow-up, the fault-target
//! register-file sizes, and how the outcome distributions differ.
//!
//! ```sh
//! cargo run --release --example isa_reliability
//! ```

use fracas::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = CampaignConfig {
        faults: 120,
        ..CampaignConfig::default()
    };

    println!(
        "CG (conjugate gradient, FP-heavy) under {} faults per ISA\n",
        config.faults
    );
    let mut rows = Vec::new();
    for isa in IsaKind::ALL {
        let scenario = Scenario::new(App::Cg, Model::Serial, 1, isa).expect("CG serial exists");
        let result = fracas::run_scenario_campaign(&scenario, &config)?;
        rows.push((isa, result));
    }

    println!(
        "{:<26} {:>14} {:>14}",
        "",
        rows[0].0.analogue(),
        rows[1].0.analogue()
    );
    let metric =
        |f: &dyn Fn(&CampaignResult) -> String, name: &str, rows: &[(IsaKind, CampaignResult)]| {
            println!("{:<26} {:>14} {:>14}", name, f(&rows[0].1), f(&rows[1].1));
        };
    metric(
        &|r| r.golden.instructions.to_string(),
        "instructions",
        &rows,
    );
    metric(&|r| r.golden.cycles.to_string(), "cycles", &rows);
    metric(
        &|r| format!("{:.1} %", r.profile.branch_ratio * 100.0),
        "branch share",
        &rows,
    );
    metric(
        &|r| format!("{:.1} %", r.profile.mem_ratio * 100.0),
        "memory share",
        &rows,
    );
    metric(
        &|r| format!("{:.1} %", r.profile.softfloat_cycle_fraction * 100.0),
        "softfloat cycles",
        &rows,
    );
    metric(
        &|r| {
            let scenario = Scenario::from_id(&r.id).expect("a suite scenario");
            FaultSpace::default()
                .total_bits(scenario.isa, 1)
                .to_string()
        },
        "fault-target bits",
        &rows,
    );
    println!();
    for class in Outcome::ALL {
        metric(
            &|r| format!("{:.1} %", r.tally.pct(class)),
            class.name(),
            &rows,
        );
    }

    let blowup = rows[0].1.golden.instructions as f64 / rows[1].1.golden.instructions as f64;
    println!(
        "\nThe ARMv7-like model executes {blowup:.1}x the instructions (software FP),\n\
         so a fixed particle fluence strikes it for far longer — the paper's MTBF\n\
         argument for the 64-bit ISA (§4.1.1)."
    );
    Ok(())
}
