//! Class-vs-full differential: a `prune_classes` campaign must produce
//! a byte-identical database to the unpruned campaign — the exactness
//! contract of interval-keyed equivalence-class collapse — while
//! executing a fraction of the injections. Also pins the exact class
//! partition of two campaigns, non-vacuous member synthesis and
//! member-sampling audits on the mini-kernel, unmodeled-target
//! accounting, the ≤50% EP-matrix collapse criterion, bit-identical
//! crash/resume of a class-pruned sweep including its audit report, and
//! exact late landing of class representatives on non-EP text
//! campaigns.

mod common;

use common::build_workload;
use fracas_inject::{
    campaign_faults, class_plan, domain, golden_run_with_checkpoints, golden_trace, run_campaign,
    run_fleet_with_sink, CampaignConfig, CampaignResult, ClassStats, Fault, FaultSpace,
    FaultTarget, FleetConfig, Workload,
};
use fracas_isa::IsaKind;
use fracas_npb::{App, Model, Scenario};
use std::path::PathBuf;

fn workload(app: App, model: Model, cores: u32, isa: IsaKind) -> Workload {
    let scenario = Scenario::new(app, model, cores, isa).expect("scenario exists");
    Workload::from_scenario(&scenario).expect("build")
}

/// Runs the same campaign unpruned and with `prune_classes` and checks
/// the byte-identity contract. Returns the classed result (for
/// collapse-rate assertions).
fn differential(w: &Workload, config: &CampaignConfig) -> CampaignResult {
    let full = run_campaign(w, config);
    let classed = run_campaign(
        w,
        &CampaignConfig {
            prune_classes: true,
            ..config.clone()
        },
    );
    // Exactness: the class-pruned database is byte-identical to the
    // full campaign's (the in-memory `rep` markers are deliberately not
    // serialized, like the class statistics).
    assert_eq!(full.to_json(), classed.to_json(), "{}", w.id);
    let stats = classed.classes.expect("class stats present");
    assert_eq!(stats.faults as usize, config.faults);
    assert_eq!(
        stats.decided + stats.live_classes + stats.members + stats.singletons,
        stats.faults,
        "{}: class partition must cover the fault list",
        w.id
    );
    assert!(
        stats.executed() < stats.faults,
        "{}: class pruning executed every fault ({:?})",
        w.id,
        stats
    );
    classed
}

fn ep_config(faults: usize) -> CampaignConfig {
    CampaignConfig {
        faults,
        ..CampaignConfig::default()
    }
}

#[test]
fn ep_sira64_classes_match_full_campaign() {
    let w = workload(App::Ep, Model::Serial, 1, IsaKind::Sira64);
    let classed = differential(&w, &ep_config(200));
    let stats = classed.classes.expect("class stats present");
    // The headline acceptance criterion holds per-scenario on SIRA-64:
    // at most half of the sampled faults execute.
    assert!(
        stats.executed_fraction() <= 0.5,
        "executed {}/{} ({:.0}%)",
        stats.executed(),
        stats.faults,
        stats.executed_fraction() * 100.0
    );
}

#[test]
fn ep_sira32_classes_match_full_campaign() {
    let w = workload(App::Ep, Model::Serial, 1, IsaKind::Sira32);
    let classed = differential(&w, &ep_config(200));
    let stats = classed.classes.expect("class stats present");
    // SIRA-32 collapses less (512 register bits, all of them integer
    // and mostly live); the ≤50% criterion is a matrix-wide aggregate,
    // dominated by SIRA-64 — see `ep_matrix_executes_at_most_half`.
    assert!(
        stats.executed_fraction() <= 0.65,
        "executed {}/{} ({:.0}%)",
        stats.executed(),
        stats.faults,
        stats.executed_fraction() * 100.0
    );
}

#[test]
fn ep_omp_classes_match_full_campaign() {
    // A parallel schedule: dispatch/save boundaries chop intervals
    // differently per core, which is where a landing-model bug would
    // show up as a byte-level diff.
    let w = workload(App::Ep, Model::Omp, 2, IsaKind::Sira64);
    differential(&w, &ep_config(120));
}

/// The acceptance criterion, pinned plan-side over the whole EP matrix:
/// `prune_classes` at `FRACAS_FAULTS=200` executes at most 50% of the
/// sampled faults, aggregated across every programming model × core
/// count × ISA. (Plan statistics only — tally exactness against real
/// execution is pinned per-scenario by the differentials above.)
#[test]
fn ep_matrix_executes_at_most_half() {
    let config = ep_config(200);
    let mut executed = 0u64;
    let mut sampled = 0u64;
    for isa in [IsaKind::Sira64, IsaKind::Sira32] {
        for (model, cores) in [
            (Model::Serial, 1),
            (Model::Omp, 1),
            (Model::Omp, 2),
            (Model::Omp, 4),
            (Model::Mpi, 1),
            (Model::Mpi, 2),
            (Model::Mpi, 4),
        ] {
            let w = workload(App::Ep, model, cores, isa);
            let (report, trace) = golden_trace(&w);
            let faults = campaign_faults(&w, &config, report.cycles);
            let stats = class_plan(&w, &trace, &faults).stats();
            executed += u64::from(stats.executed());
            sampled += u64::from(stats.faults);
        }
    }
    assert_eq!(sampled, 14 * 200);
    assert!(
        executed * 2 <= sampled,
        "EP matrix executed {executed}/{sampled} sampled faults"
    );
}

/// Non-vacuous member synthesis: the mini-kernel's tight register file
/// (SIRA-32: 15 injectable GPRs) plus long parked-register intervals
/// produce real multi-member live classes, whose synthesized records
/// must still be byte-identical to execution; the member-sampling
/// audit layer must then report zero mismatches over them.
#[test]
fn mini_kernel_members_collapse_and_audit_cleanly() {
    let w = build_workload(IsaKind::Sira32, 1, 2, 50, false, 4_000);
    let config = CampaignConfig {
        faults: 800,
        oracle_audit: 0.5,
        ..CampaignConfig::default()
    };
    let classed = differential(&w, &config);
    let stats = classed.classes.expect("class stats present");
    // The exact partition: 185 live classes absorb 14 members.
    assert_eq!(
        stats,
        ClassStats {
            faults: 800,
            decided: 601,
            live_classes: 185,
            members: 14,
            ..ClassStats::default()
        },
        "{}",
        w.id
    );
    // The member-sampling audit executed a real subset of the members
    // (rate 0.5 over >0 members) and every one classified identically
    // to its representative.
    let report = classed.audit.expect("audit enabled");
    let (_, trace) = golden_trace(&w);
    let faults = campaign_faults(&w, &config, classed.golden.cycles);
    let plan = class_plan(&w, &trace, &faults);
    let member_audits = report
        .entries
        .iter()
        .filter(|e| plan.rep[e.index as usize] != e.index)
        .count();
    assert!(
        member_audits > 0,
        "{}: audit sampled no class members: {}",
        w.id,
        report.summary()
    );
    assert_eq!(report.mismatch_count(), 0, "{}", report.summary());
}

/// Text faults are first-class since PR 8: a mixed register+text
/// campaign decides and classes its text draws like any register fault
/// (zero unmodeled residue — the bundled workloads never self-patch),
/// and the sampled audit layer re-executes a subset of the pruned text
/// faults against the decode-differential verdicts with zero
/// mismatches.
#[test]
fn text_faults_are_modeled_and_audit_cleanly() {
    let w = workload(App::Ep, Model::Serial, 1, IsaKind::Sira64);
    let config = FleetConfig {
        campaign: CampaignConfig {
            faults: 60,
            prune_classes: true,
            oracle_audit: 0.25,
            space: FaultSpace {
                text: true,
                ..FaultSpace::default()
            },
            ..CampaignConfig::default()
        },
        ..FleetConfig::default()
    };
    let path = temp_sink("text-modeled");
    let _ = std::fs::remove_file(&path);
    let results = run_fleet_with_sink(&[w], &config, &path).expect("sink opens");
    let _ = std::fs::remove_file(&path);
    let stats = results[0].classes.expect("class stats present");
    // EP's text dwarfs its register file, so uniform draws over the
    // mixed space are overwhelmingly text faults — and every one of
    // them is now inside the model.
    assert_eq!(
        stats.unmodeled.total(),
        0,
        "text faults must not land in the unmodeled buckets: {stats:?}"
    );
    assert!(
        stats.decided > 0,
        "no text fault was statically decided: {stats:?}"
    );
    assert!(stats.executed() < stats.faults, "{stats:?}");
    let report = results[0].audit.as_ref().expect("audit enabled");
    assert!(
        !report.entries.is_empty(),
        "rate 0.25 must audit some pruned text faults: {}",
        report.summary()
    );
    assert_eq!(report.mismatch_count(), 0, "{}", report.summary());
}

/// The text-only differential on both ISAs: a `prune_classes` text-bit
/// campaign produces a byte-identical database to the full campaign
/// while statically deciding a substantial share of the flips.
#[test]
fn ep_text_only_classes_match_full_campaign() {
    for isa in [IsaKind::Sira64, IsaKind::Sira32] {
        let w = workload(App::Ep, Model::Serial, 1, isa);
        let config = CampaignConfig {
            faults: 120,
            space: FaultSpace::only("text"),
            ..CampaignConfig::default()
        };
        let classed = differential(&w, &config);
        let stats = classed.classes.expect("class stats present");
        assert!(stats.decided > 0, "{}: {stats:?}", w.id);
        assert_eq!(stats.unmodeled.total(), 0, "{}: {stats:?}", w.id);
    }
}

/// Late landing on non-EP text campaigns (IS-MPI's point-to-point
/// messaging, DC-OMP's locking): most representatives start from a
/// checkpoint inside their landing interval, yet the classed database
/// stays byte-identical to the full campaign's. The audit re-executes
/// sampled late representatives from before their own landing, with
/// zero mismatches.
#[test]
fn non_ep_text_classes_match_full_campaign_with_late_representatives() {
    for (app, model, isa) in [
        (App::Is, Model::Mpi, IsaKind::Sira32),
        (App::Dc, Model::Omp, IsaKind::Sira64),
    ] {
        let w = workload(app, model, 2, isa);
        let config = CampaignConfig {
            faults: 40,
            space: FaultSpace::only("text"),
            oracle_audit: 0.5,
            ..CampaignConfig::default()
        };
        let classed = differential(&w, &config);
        let stats = classed.classes.expect("class stats present");
        // Which representatives landed late is a pure function of the
        // plan and the ladder, so the test can rebuild both.
        let (report, trace) = golden_trace(&w);
        let (_, _, ladder) = golden_run_with_checkpoints(&w, config.checkpoints);
        let faults = campaign_faults(&w, &config, report.cycles);
        let plan = class_plan(&w, &trace, &faults);
        let late: Vec<usize> = (0..faults.len())
            .filter(|&i| {
                plan.horizon[i].is_some_and(|h| {
                    ladder
                        .latest_in_interval(faults[i].timing_core(), faults[i].cycle, h)
                        .is_some()
                })
            })
            .collect();
        assert!(
            late.len() * 4 >= stats.live_classes as usize && !late.is_empty(),
            "{}: only {} of {} representatives landed late",
            w.id,
            late.len(),
            stats.live_classes
        );
        let audit = classed.audit.expect("audit enabled");
        assert!(
            audit
                .entries
                .iter()
                .any(|e| late.contains(&(e.index as usize))),
            "{}: no late representative was audited: {}",
            w.id,
            audit.summary()
        );
        assert_eq!(audit.mismatch_count(), 0, "{}", audit.summary());
    }
}

/// The class partition of `is-ser-1-sira32` at 50 faults, seed 7, in
/// both fault spaces. Pruned databases stay byte-identical whatever the
/// partition, so only a pin like this one sees a change that moves
/// faults between tiers. This is also the campaign whose one member
/// keeps the benchmark driver's member branch exercised.
#[test]
fn is_ser_1_sira32_class_partition_is_pinned() {
    let w = workload(App::Is, Model::Serial, 1, IsaKind::Sira32);
    let (report, trace) = golden_trace(&w);
    for (space, decided, live_classes, members) in [
        (FaultSpace::default(), 19, 30, 1),
        (FaultSpace::only("text"), 45, 5, 0),
    ] {
        let config = CampaignConfig {
            faults: 50,
            seed: 7,
            space,
            ..CampaignConfig::default()
        };
        let faults = campaign_faults(&w, &config, report.cycles);
        let stats = class_plan(&w, &trace, &faults).stats();
        assert_eq!(
            stats,
            ClassStats {
                faults: 50,
                decided,
                live_classes,
                members,
                ..ClassStats::default()
            },
            "{space:?}"
        );
    }
}

/// The SIRA-32 FPR regression at the plan level: the sampler never
/// draws SIRA-32 FPR faults (they are outside the ISA's fault space),
/// but a hand-built one must classify as an unmodeled singleton —
/// counted under the `fpr` domain, executed for real — not silently
/// share the oracle-abstained path.
#[test]
fn sira32_fpr_faults_form_unmodeled_singletons() {
    let w = build_workload(IsaKind::Sira32, 1, 1, 10, false, 4_000);
    let (_, trace) = golden_trace(&w);
    let faults: Vec<Fault> = (0..4u32)
        .map(|i| Fault {
            target: FaultTarget::Fpr {
                core: 0,
                reg: i,
                bit: i,
            },
            cycle: u64::from(i) * 40 + 10,
            width: 1,
        })
        .chain(std::iter::once(Fault {
            target: FaultTarget::Gpr {
                core: 0,
                reg: 9,
                bit: 0,
            },
            cycle: 10,
            width: 1,
        }))
        .collect();
    let stats = class_plan(&w, &trace, &faults).stats();
    assert_eq!(stats.unmodeled.count(&domain::FPR), 4, "{stats:?}");
    assert_eq!(stats.unmodeled.total(), 4);
    assert!(stats.singletons >= 4, "unmodeled faults execute for real");
    assert_eq!(stats.faults, 5);
}

fn temp_sink(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("fracas-classes-{tag}-{}.jsonl", std::process::id()));
    path
}

#[test]
fn class_sweep_resumes_bit_identically_with_audit_report() {
    let workloads = vec![
        workload(App::Ep, Model::Serial, 1, IsaKind::Sira64),
        build_workload(IsaKind::Sira32, 1, 2, 50, false, 4_000),
    ];
    let config = FleetConfig {
        campaign: CampaignConfig {
            faults: 120,
            prune_classes: true,
            oracle_audit: 0.3,
            ..CampaignConfig::default()
        },
        ..FleetConfig::default()
    };
    let path = temp_sink("resume");
    let _ = std::fs::remove_file(&path);
    let full = run_fleet_with_sink(&workloads, &config, &path).expect("sink opens");
    let full_reports: Vec<_> = full.iter().map(|r| r.audit.clone()).collect();
    for report in full_reports.iter().map(|r| r.as_ref().expect("audit on")) {
        assert!(
            !report.entries.is_empty(),
            "{}: rate 0.3 over a class-pruned sweep must audit something",
            report.id
        );
        // The sampled audit: every audited synthesized record — decided
        // fault or class member — matches its real execution.
        assert_eq!(report.mismatch_count(), 0, "{}", report.summary());
    }

    // Kill mid-sweep (keep header + first half of lines + a torn tail),
    // then resume: databases and audit reports must be bit-identical to
    // the uninterrupted run's.
    let text = std::fs::read_to_string(&path).expect("sink readable");
    let lines: Vec<&str> = text.lines().collect();
    let mut truncated: String = lines[..lines.len() / 2]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    truncated.push_str(&lines[lines.len() / 2][..7]);
    std::fs::write(&path, truncated).expect("truncate sink");
    let resumed = run_fleet_with_sink(&workloads, &config, &path).expect("sink reopens");
    for (a, b) in full.iter().zip(&resumed) {
        assert_eq!(a.to_json(), b.to_json(), "{}: records diverged", a.id);
        // Resumed class statistics match too: the plan is a pure
        // function of the fault list.
        assert_eq!(a.classes, b.classes, "{}: class stats diverged", a.id);
    }
    let resumed_reports: Vec<_> = resumed.iter().map(|r| r.audit.clone()).collect();
    assert_eq!(
        resumed_reports, full_reports,
        "resumed audit report must be bit-identical"
    );
    let _ = std::fs::remove_file(&path);
}
