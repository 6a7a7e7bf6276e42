//! Property suite: interval fingerprints are *exact* on randomized
//! mini-kernels with forced preemption.
//!
//! The class-pruning layer in `fracas-inject` executes one
//! representative per equivalence class and synthesizes every other
//! member's record from it. Its soundness rests on the claim proved in
//! [`fracas_analyze::intervals`]: two faults with identical
//! `(core, target, bit, width)` coordinates and identical
//! [`Fingerprint`] produce byte-identical executions — same outcome,
//! same cycle count, same instruction count. This suite checks that
//! claim against the real injector on generated lock/loop kernels with
//! randomly small preemption quanta (the same adversarial schedule
//! family as the oracle conservativeness suite), plus two congruence
//! properties: fingerprinting is deterministic, and a `Decided`
//! fingerprint agrees with real execution at golden timing.
//!
//! A second property covers late landing: with a dense checkpoint
//! ladder, a live fault started from the latest rung inside its landing
//! interval (its [`Horizon`]) must record exactly what the same fault
//! records when replayed up to its own landing.

use fracas_analyze::{Fingerprint, Horizon, PruneOracle, PruneTarget, PruneVerdict};
use fracas_inject::{
    classify, golden_run_with_checkpoints, golden_trace, inject_one, prune_cap, Fault, FaultTarget,
    Outcome, PruneCap, Workload,
};
use fracas_isa::{link, Asm, Cond, IsaKind, Reg};
use fracas_kernel::{abi, BootSpec, Limits};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;
use std::sync::Arc;

const R0: Reg = Reg(0);
const R1: Reg = Reg(1);
const R2: Reg = Reg(2);
const R3: Reg = Reg(3);
const R4: Reg = Reg(4);

/// The generated mini-kernel (the oracle-props family): `workers`
/// threads bump a shared counter `iters` times, preempted by a small
/// quantum, with the counter printed before exit so corruption is
/// externally visible.
fn build_workload(
    isa: IsaKind,
    cores: usize,
    workers: u16,
    iters: u64,
    locked: bool,
    quantum: u64,
) -> Workload {
    let mut a = Asm::new(isa);
    a.global_fn("_start");
    for w in 0..workers {
        a.lea_text(R0, "worker");
        a.movz(R1, w, 0);
        a.svc(abi::SYS_SPAWN);
        a.mov(Reg(5 + w as u8), R0);
    }
    for w in 0..workers {
        a.mov(R0, Reg(5 + w as u8));
        a.svc(abi::SYS_JOIN);
    }
    a.lea_data(R1, "counter");
    a.ld(R0, R1, 0);
    a.svc(abi::SYS_WRITE_INT);
    a.movz(R0, 0, 0);
    a.svc(abi::SYS_EXIT);

    a.global_fn("worker");
    a.load_imm(R2, iters);
    let done = a.new_label();
    let top = a.here();
    a.cmpi(R2, 0);
    a.bc(Cond::Eq, done);
    if locked {
        a.lea_data(R0, "counter");
        a.svc(abi::SYS_LOCK);
    }
    a.lea_data(R3, "counter");
    a.ld(R4, R3, 0);
    a.addi(R4, R4, 1);
    a.st(R4, R3, 0);
    if locked {
        a.lea_data(R0, "counter");
        a.svc(abi::SYS_UNLOCK);
    }
    a.subi(R2, R2, 1);
    a.b(top);
    a.bind(done);
    a.movz(R0, 0, 0);
    a.svc(abi::SYS_THREAD_EXIT);
    a.data_zero("counter", 8);

    let image = link(isa, &[a.into_object()]).expect("mini-kernel links");
    Workload {
        id: format!("ivl-{isa:?}-c{cores}-w{workers}-i{iters}-l{locked}-q{quantum}"),
        image: Arc::new(image),
        cores,
        spec: BootSpec {
            quantum,
            ..BootSpec::serial()
        },
    }
}

/// The oracle-facing coordinates of `fault`; `None` for targets the
/// oracle does not fingerprint.
fn oracle_coords(isa: IsaKind, fault: &Fault) -> Option<(usize, PruneTarget)> {
    match prune_cap(isa, fault) {
        PruneCap::Oracle(core, target) => Some((core, target)),
        PruneCap::StaticOnly | PruneCap::Unmodeled => None,
    }
}

/// The class key of one fault, exactly as `fracas-inject` builds it:
/// the full fault coordinates plus the landing-interval fingerprint.
/// `None` for targets outside the oracle's model.
type ClassKey = (usize, PruneTarget, u32, u32, Fingerprint);

fn class_key(oracle: &PruneOracle, isa: IsaKind, fault: &Fault) -> Option<ClassKey> {
    let (core, target) = oracle_coords(isa, fault)?;
    let bit = match fault.target {
        FaultTarget::Gpr { bit, .. } | FaultTarget::Fpr { bit, .. } => bit,
        FaultTarget::Flag { which, .. } => which,
        _ => return None,
    };
    let width = fault.width.max(1);
    let fp = oracle.fingerprint(core, target, fault.cycle)?;
    Some((core, target, bit, width, fp))
}

/// Groups `faults` into equivalence classes and validates every class
/// against real execution:
///
/// * **Live classes** (≥2 members): every executed member record —
///   outcome, cycles, instructions — equals the first member's.
/// * **Decided classes**: real execution classifies to the verdict and
///   runs at golden timing.
///
/// Returns `(live_members_checked, decided_checked)` so callers can pin
/// non-vacuity. Execution cost is bounded: at most `max_exec` members
/// per live class.
fn check_exactness(
    workload: &Workload,
    faults: &[Fault],
    max_exec: usize,
) -> Result<(usize, usize), TestCaseError> {
    let isa = workload.image.isa;
    let (report, trace) = golden_trace(workload);
    let (_, _, checkpoints) = golden_run_with_checkpoints(workload, 0);
    let limits = Limits {
        max_cycles: (report.cycles * 4).max(report.cycles + 100_000),
        max_steps: (report.total_instructions() * 8).max(1_000_000),
    };
    let oracle = PruneOracle::new(isa, &workload.image.text, workload.image.text_base, &trace);
    let mut groups: HashMap<ClassKey, Vec<Fault>> = HashMap::new();
    for fault in faults {
        let Some(key) = class_key(&oracle, isa, fault) else {
            continue;
        };
        // Determinism congruence: the fingerprint is a pure function of
        // the fault coordinates.
        prop_assert_eq!(
            class_key(&oracle, isa, fault),
            Some(key),
            "fingerprint must be deterministic"
        );
        groups.entry(key).or_default().push(*fault);
    }
    let mut live_checked = 0;
    let mut decided_checked = 0;
    for ((_, _, _, _, fp), members) in groups {
        match fp {
            Fingerprint::Decided(verdict) => {
                // Decided classes collapse by verdict with golden
                // timing; one real execution per class validates both.
                let fault = members[0];
                let faulty = inject_one(workload, &fault, &checkpoints, &limits, None);
                let expected = match verdict {
                    PruneVerdict::Vanished => Outcome::Vanished,
                    PruneVerdict::SilentResidue => Outcome::Ona,
                };
                prop_assert_eq!(
                    classify(&report, &faulty),
                    expected,
                    "{}: decided class {:?} diverged on {:?}",
                    &workload.id,
                    verdict,
                    fault
                );
                prop_assert_eq!(faulty.cycles, report.cycles);
                prop_assert_eq!(faulty.total_instructions(), report.total_instructions());
                decided_checked += 1;
            }
            Fingerprint::Live { .. } => {
                if members.len() < 2 {
                    continue;
                }
                let mut reference: Option<(Outcome, u64, u64)> = None;
                for fault in members.iter().take(max_exec.max(2)) {
                    let faulty = inject_one(workload, fault, &checkpoints, &limits, None);
                    let observed = (
                        classify(&report, &faulty),
                        faulty.cycles,
                        faulty.total_instructions(),
                    );
                    match reference {
                        None => reference = Some(observed),
                        Some(expected) => {
                            prop_assert_eq!(
                                observed,
                                expected,
                                "{}: same-class faults diverged: {:?} vs {:?}",
                                &workload.id,
                                fault,
                                members[0]
                            );
                            live_checked += 1;
                        }
                    }
                }
            }
        }
    }
    Ok((live_checked, decided_checked))
}

/// A fault batch engineered to collide: few distinct registers and bit
/// positions, cycles spread uniformly across the run, so long def→use
/// intervals collect several faults each.
fn colliding_faults(cores: usize, golden_cycles: u64, n: u64) -> Vec<Fault> {
    (0..n)
        .map(|i| {
            let h = i
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0xD1B5_4A32_D192_ED03);
            let core = (h % cores as u64) as u32;
            let target = match h % 3 {
                0 => FaultTarget::Gpr {
                    core,
                    reg: ((h >> 8) % 6) as u32,
                    bit: ((h >> 16) % 2) as u32,
                },
                1 => FaultTarget::Fpr {
                    core,
                    reg: ((h >> 8) % 4) as u32,
                    bit: ((h >> 16) % 2) as u32,
                },
                _ => FaultTarget::Flag {
                    core,
                    which: ((h >> 8) % 4) as u32,
                },
            };
            Fault {
                target,
                cycle: (h >> 24) % (golden_cycles + golden_cycles / 8 + 16),
                width: 1,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn same_class_faults_execute_identically(
        sira64 in any::<bool>(),
        cores in 1usize..3,
        workers in 1u16..4,
        iters in 20u64..101,
        locked in any::<bool>(),
        quantum in 60u64..401,
        batch in 48u64..97,
    ) {
        let isa = if sira64 { IsaKind::Sira64 } else { IsaKind::Sira32 };
        let workload = build_workload(isa, cores, workers, iters, locked, quantum);
        let (report, _) = golden_trace(&workload);
        let faults = colliding_faults(cores, report.cycles, batch);
        check_exactness(&workload, &faults, 3)?;
    }
}

/// Pins the property non-vacuous: on a fixed mini-kernel a tight fault
/// batch — two long-lived GPRs (the worker's loop counter and a parked
/// tid), one bit, cycles spread across the run — actually produces
/// multi-member live classes (and decided classes), and every one of
/// them validates.
#[test]
fn live_classes_form_and_validate_on_the_mini_kernel() {
    let workload = build_workload(IsaKind::Sira64, 1, 2, 50, false, 4_000);
    let (report, _) = golden_trace(&workload);
    let faults: Vec<Fault> = (0..240u64)
        .map(|i| {
            let h = i
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0xD1B5_4A32_D192_ED03);
            let target = if h % 5 == 4 {
                // Flag upsets mostly die at the next cmp: decided fuel.
                FaultTarget::Flag {
                    core: 0,
                    which: ((h >> 8) % 4) as u32,
                }
            } else {
                FaultTarget::Gpr {
                    core: 0,
                    // r2/r5 are long-lived (loop counter, parked tid) —
                    // live-class fuel; r9 is never touched, so its
                    // faults decide.
                    reg: [2, 5, 2, 9][(h % 4) as usize],
                    bit: 0,
                }
            };
            Fault {
                target,
                cycle: (h >> 8) % (report.cycles + 16),
                width: 1,
            }
        })
        .collect();
    let (live, decided) = check_exactness(&workload, &faults, 4).expect("exactness holds");
    assert!(live >= 4, "only {live} live-class member pairs checked");
    assert!(decided >= 4, "only {decided} decided classes checked");
}

/// Checkpoints requested for the late-landing property: the capturer
/// keeps 32–64 rungs, at its finest stride on runs this short.
const DENSE_LADDER: usize = 32;

/// Runs every live fault of `faults` whose landing interval holds a rung
/// twice — from that rung with the flip applied on restore, and
/// replayed up to its own landing — and requires identical outcome,
/// cycles and instructions. Returns `(live, late)`: the faults with a
/// horizon, and those of them that started late.
fn check_late_landing(
    workload: &Workload,
    faults: &[Fault],
) -> Result<(usize, usize), TestCaseError> {
    let isa = workload.image.isa;
    let (report, trace) = golden_trace(workload);
    let (_, _, ladder) = golden_run_with_checkpoints(workload, DENSE_LADDER);
    let limits = Limits {
        max_cycles: (report.cycles * 4).max(report.cycles + 100_000),
        max_steps: (report.total_instructions() * 8).max(1_000_000),
    };
    let oracle = PruneOracle::new(isa, &workload.image.text, workload.image.text_base, &trace);
    let (mut live, mut late) = (0, 0);
    for fault in faults {
        let Some((core, target)) = oracle_coords(isa, fault) else {
            continue;
        };
        let Some(horizon) = oracle
            .fingerprint(core, target, fault.cycle)
            .and_then(|fp| oracle.horizon(fp))
        else {
            continue;
        };
        live += 1;
        if ladder
            .latest_in_interval(fault.timing_core(), fault.cycle, horizon)
            .is_none()
        {
            // No rung inside the interval: both runs take the same path.
            continue;
        }
        late += 1;
        let observe = |horizon: Option<Horizon>| {
            let faulty = inject_one(workload, fault, &ladder, &limits, horizon);
            (
                classify(&report, &faulty),
                faulty.cycles,
                faulty.total_instructions(),
            )
        };
        prop_assert_eq!(
            observe(Some(horizon)),
            observe(None),
            "{}: late landing diverged from own landing on {:?} ({:?})",
            &workload.id,
            fault,
            horizon
        );
    }
    Ok((live, late))
}

/// Register faults (few registers, so long intervals recur) mixed with
/// text faults on every word of the image, cycles spread across the
/// whole run.
fn mixed_faults(workload: &Workload, golden_cycles: u64, n: u64) -> Vec<Fault> {
    let words = workload.image.text.len() as u64;
    let mut faults = colliding_faults(workload.cores, golden_cycles, n);
    for (i, fault) in faults.iter_mut().enumerate() {
        let h = (i as u64)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(0x94d0_49bb_1331_11eb);
        if h.is_multiple_of(2) {
            fault.target = FaultTarget::Text {
                word: ((h >> 8) % words) as u32,
                bit: ((h >> 24) % 32) as u32,
            };
        }
    }
    faults
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn late_landing_matches_own_landing(
        sira64 in any::<bool>(),
        cores in 1usize..3,
        extra in 0u16..2,
        iters in 20u64..101,
        locked in any::<bool>(),
        quantum in 60u64..401,
        batch in 48u64..97,
    ) {
        let isa = if sira64 { IsaKind::Sira64 } else { IsaKind::Sira32 };
        // `_start` plus at least `cores` workers: more threads than cores.
        let workers = cores as u16 + extra;
        let workload = build_workload(isa, cores, workers, iters, locked, quantum);
        let (report, _) = golden_trace(&workload);
        let faults = mixed_faults(&workload, report.cycles, batch);
        check_late_landing(&workload, &faults)?;
    }
}

/// Pins the late-landing property non-vacuous: on a fixed mini-kernel
/// long enough for a few dozen rungs, enough live faults really start
/// from a rung inside their interval.
#[test]
fn live_faults_land_late_on_the_mini_kernel() {
    let workload = build_workload(IsaKind::Sira64, 2, 3, 100, true, 200);
    let (report, _) = golden_trace(&workload);
    let faults = mixed_faults(&workload, report.cycles, 160);
    let (live, late) = check_late_landing(&workload, &faults).expect("late landing is exact");
    assert!(late >= 10, "only {late} of {live} live faults landed late");
}
