//! Prune-vs-full differential: a `prune_classes` campaign must produce
//! a byte-identical database to the unpruned campaign on real NPB
//! scenarios — same records, same order, same serialisation — while
//! its decided tier alone short-circuits a meaningful share of the
//! injections.

use fracas_inject::{
    campaign_faults, class_plan, golden_trace, run_campaign, CampaignConfig, CampaignResult,
    InjectionRecord, Workload,
};
use fracas_isa::IsaKind;
use fracas_npb::{App, Model, Scenario};

/// Runs the same campaign with pruning off and on and checks the
/// byte-identity contract. Returns the pruned-mode result (for rate
/// assertions).
fn differential(app: App, isa: IsaKind, faults: usize) -> CampaignResult {
    let scenario = Scenario::new(app, Model::Serial, 1, isa).expect("scenario exists");
    let workload = Workload::from_scenario(&scenario).expect("build");
    let config = CampaignConfig {
        faults,
        ..CampaignConfig::default()
    };
    let full = run_campaign(&workload, &config);
    let pruned = run_campaign(
        &workload,
        &CampaignConfig {
            prune_classes: true,
            ..config
        },
    );
    // Record for record, up to the in-memory class marker that names a
    // member's representative.
    let unmarked: Vec<_> = pruned
        .records
        .iter()
        .map(|r| InjectionRecord { rep: None, ..*r })
        .collect();
    assert_eq!(
        full.records, unmarked,
        "{}: pruned campaign diverged from the full campaign",
        workload.id
    );
    // The serialised databases are byte-identical too: the class
    // statistics and markers are deliberately not part of the JSON.
    assert_eq!(full.to_json(), pruned.to_json(), "{}", workload.id);
    assert_eq!(decided(&full), 0);
    pruned
}

/// Faults the campaign's class plan decided without executing them.
fn decided(result: &CampaignResult) -> u32 {
    result.classes.map_or(0, |c| c.decided)
}

#[test]
fn ep_sira32_prunes_identically() {
    differential(App::Ep, IsaKind::Sira32, 50);
}

#[test]
fn ep_sira64_prunes_identically() {
    let pruned = differential(App::Ep, IsaKind::Sira64, 50);
    assert!(decided(&pruned) > 0, "no fault was decided statically");
    // The expected skip set is derived from the oracle itself rather
    // than hard-coded: re-planning the same fault list against the
    // golden trace must decide exactly `decided(&pruned)` faults, and every
    // decided
    // fault's verdict must equal the outcome the (byte-identical,
    // execution-validated) record stream carries. This pins the
    // oracle's *claims* to reality without freezing its coverage — a
    // smarter oracle grows the skip set, a wrong one trips the
    // per-record comparison.
    let scenario =
        Scenario::new(App::Ep, Model::Serial, 1, IsaKind::Sira64).expect("scenario exists");
    let workload = Workload::from_scenario(&scenario).expect("build");
    let config = CampaignConfig {
        faults: 50,
        ..CampaignConfig::default()
    };
    let (report, trace) = golden_trace(&workload);
    let faults = campaign_faults(&workload, &config, report.cycles);
    let table = class_plan(&workload, &trace, &faults).decided;
    let direct = table.iter().flatten().count() as u32;
    assert_eq!(
        decided(&pruned),
        direct,
        "campaign skip count diverged from a direct oracle run"
    );
    for (record, verdict) in pruned.records.iter().zip(&table) {
        if let Some(outcome) = verdict {
            assert_eq!(
                record.outcome, *outcome,
                "record {} ({:?}): oracle verdict contradicts real execution",
                record.index, record.fault
            );
        }
    }
}

#[test]
fn is_sira32_prunes_identically() {
    differential(App::Is, IsaKind::Sira32, 50);
}

#[test]
fn is_sira64_prunes_a_meaningful_share() {
    let pruned = differential(App::Is, IsaKind::Sira64, 50);
    // SIRA-64's register file is half FP registers, which an integer
    // sort rarely touches: well over a tenth of the uniform fault space
    // is provably dead and must be decided without execution.
    let rate = f64::from(decided(&pruned)) / pruned.records.len() as f64;
    assert!(
        rate >= 0.10,
        "only {}/{} injections were short-circuited",
        decided(&pruned),
        pruned.records.len()
    );
}
