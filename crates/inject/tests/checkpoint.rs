//! Checkpoint-and-restore differential tests: resuming an injection
//! from a golden-run snapshot must be bit-identical to replaying from
//! boot, across all three programming models, and every incrementally
//! captured rung must equal a full snapshot taken at its mark.

use fracas_inject::{
    golden_run_with_checkpoints, inject_one, run_campaign, sample_faults, CampaignConfig,
    CheckpointSet, Workload,
};
use fracas_isa::IsaKind;
use fracas_kernel::{Kernel, Limits};
use fracas_npb::{App, Model, Scenario};

/// Compares checkpoint-resumed against boot-replayed injections for one
/// scenario, fault by fault, on the full `RunReport` (console, memory
/// and context hashes, cycles, per-core instruction counts, stats).
fn assert_bit_identical(app: App, model: Model, cores: u32, faults: usize) {
    let scenario = Scenario::new(app, model, cores, IsaKind::Sira64).unwrap();
    let workload = Workload::from_scenario(&scenario).unwrap();
    let (golden, _, checkpoints) = golden_run_with_checkpoints(&workload, 8);
    assert!(
        !checkpoints.is_empty(),
        "{}: no checkpoints captured",
        workload.id
    );

    let limits = Limits {
        max_cycles: golden.cycles * 4,
        max_steps: (golden.total_instructions() * 8).max(1_000_000),
    };
    let list = sample_faults(
        workload.image.isa,
        cores,
        golden.cycles,
        faults,
        &fracas_inject::FaultSpace::default(),
        0xC0FFEE,
    );
    let boot_only = CheckpointSet::empty();
    let mut resumed = 0;
    for fault in &list {
        let via_checkpoint = inject_one(&workload, fault, &checkpoints, &limits);
        let via_boot = inject_one(&workload, fault, &boot_only, &limits);
        assert_eq!(
            via_checkpoint, via_boot,
            "{}: fault {fault:?} diverged between restore and boot-replay",
            workload.id
        );
        if checkpoints
            .nearest_before(fault.timing_core(), fault.cycle)
            .is_some()
        {
            resumed += 1;
        }
    }
    // The comparison is only meaningful if checkpoints actually served.
    assert!(
        resumed > 0,
        "{}: no fault resumed from a checkpoint",
        workload.id
    );
}

#[test]
fn serial_restore_is_bit_identical() {
    assert_bit_identical(App::Is, Model::Serial, 1, 10);
}

#[test]
fn omp_restore_is_bit_identical() {
    assert_bit_identical(App::Is, Model::Omp, 2, 10);
}

#[test]
fn mpi_restore_is_bit_identical() {
    assert_bit_identical(App::Is, Model::Mpi, 2, 10);
}

#[test]
fn campaign_results_match_boot_replay_exactly() {
    let scenario = Scenario::new(App::Ep, Model::Serial, 1, IsaKind::Sira64).unwrap();
    let workload = Workload::from_scenario(&scenario).unwrap();
    let base = CampaignConfig {
        faults: 25,
        threads: 2,
        ..CampaignConfig::default()
    };
    let with_checkpoints = run_campaign(&workload, &base);
    let boot_replay = run_campaign(
        &workload,
        &CampaignConfig {
            checkpoints: 0,
            ..base
        },
    );
    assert_eq!(with_checkpoints, boot_replay);
}

/// Every rung of an incrementally captured ladder restores to a kernel
/// whose state equals a full [`Kernel::snapshot`] taken at the same mark
/// by an independent golden run. A small target makes the ladder thin
/// many times, so rungs chain across dropped ones.
fn assert_ladder_matches_full_snapshots(app: App, model: Model, cores: u32, isa: IsaKind) {
    let scenario = Scenario::new(app, model, cores, isa).unwrap();
    let workload = Workload::from_scenario(&scenario).unwrap();
    let (_, _, ladder) = golden_run_with_checkpoints(&workload, 4);
    assert!(ladder.len() >= 4, "{}: ladder too short", workload.id);
    let mut reference = Kernel::boot(&workload.image, workload.cores, workload.spec);
    for (mark, rung) in ladder.rungs() {
        assert!(
            reference
                .run_until_machine_cycle(mark, &Limits::default())
                .is_none(),
            "{}: reference run ended before mark {mark}",
            workload.id
        );
        let full = reference.snapshot();
        assert!(
            Kernel::restore(rung).state_matches(&full),
            "{}: rung at mark {mark} differs from a full snapshot",
            workload.id
        );
    }
}

#[test]
fn serial_ladder_matches_full_snapshots() {
    for isa in [IsaKind::Sira64, IsaKind::Sira32] {
        assert_ladder_matches_full_snapshots(App::Is, Model::Serial, 1, isa);
    }
}

#[test]
fn omp_ladder_matches_full_snapshots() {
    for isa in [IsaKind::Sira64, IsaKind::Sira32] {
        assert_ladder_matches_full_snapshots(App::Is, Model::Omp, 2, isa);
    }
}

#[test]
fn mpi_ladder_matches_full_snapshots() {
    for isa in [IsaKind::Sira64, IsaKind::Sira32] {
        assert_ladder_matches_full_snapshots(App::Is, Model::Mpi, 2, isa);
    }
}

/// A checkpoint target too large to double or to preallocate (as a
/// user may pass through `FRACAS_CHECKPOINTS` or `--checkpoints`) never
/// thins: the ladder keeps one rung per initial stride, and the
/// campaign's records are byte-identical to the default ladder's.
#[test]
fn huge_checkpoint_target_keeps_a_valid_ladder_and_the_records() {
    let scenario = Scenario::new(App::Is, Model::Serial, 1, IsaKind::Sira64).unwrap();
    let workload = Workload::from_scenario(&scenario).unwrap();
    let (_, _, ladder) = golden_run_with_checkpoints(&workload, usize::MAX);
    let marks: Vec<u64> = ladder.rungs().map(|(mark, _)| mark).collect();
    assert!(marks.len() > 32, "only {} rungs", marks.len());
    assert!(marks.iter().zip(1..).all(|(&mark, i)| mark == i * marks[0]));

    let base = CampaignConfig {
        faults: 12,
        threads: 2,
        ..CampaignConfig::default()
    };
    let huge = run_campaign(
        &workload,
        &CampaignConfig {
            checkpoints: usize::MAX,
            ..base.clone()
        },
    );
    assert_eq!(huge.to_json(), run_campaign(&workload, &base).to_json());
}
