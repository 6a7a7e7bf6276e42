//! Cross-crate integration tests: the full pipeline from FL source text
//! down to classified fault-injection outcomes.

use fracas::prelude::*;

/// One source, both ISAs, same functional result — the core promise of
/// the toolchain.
#[test]
fn one_source_two_isas_same_semantics() {
    let src = "
        global float v[64];
        fn main() -> int {
            let int i = 0;
            let float s = 0.0;
            for (i = 0; i < 64; i = i + 1) { v[i] = float(i) * 0.5; }
            for (i = 0; i < 64; i = i + 1) { s = s + v[i]; }
            print_int(int(s));
            return 0;
        }";
    let mut outputs = Vec::new();
    for isa in IsaKind::ALL {
        let image = fracas::rt::build_image(&[src], isa).expect("build");
        let mut kernel = Kernel::boot(&image, 1, BootSpec::serial());
        assert!(kernel.run(&Limits::default()).is_clean_exit(), "{isa}");
        outputs.push(String::from_utf8_lossy(kernel.console()).into_owned());
    }
    assert_eq!(outputs[0], "1008");
    assert_eq!(outputs[0], outputs[1], "both ISAs compute sum 0.5*(0..64)");
}

/// The ARMv7-like ISA pays the softfloat tax in instructions; the
/// ARMv8-like pays in fault-target bits — both paper claims at once.
#[test]
fn isa_tradeoff_is_visible() {
    let scenario32 = Scenario::new(App::Ft, Model::Serial, 1, IsaKind::Sira32).unwrap();
    let scenario64 = Scenario::new(App::Ft, Model::Serial, 1, IsaKind::Sira64).unwrap();
    let run = |s: &Scenario| {
        let workload = Workload::from_scenario(s).unwrap();
        golden_run(&workload).0
    };
    let g32 = run(&scenario32);
    let g64 = run(&scenario64);
    assert!(
        g32.total_instructions() > g64.total_instructions() * 5,
        "FT softfloat blow-up: {} vs {}",
        g32.total_instructions(),
        g64.total_instructions()
    );
    let space = FaultSpace::default();
    assert_eq!(
        space.total_bits(IsaKind::Sira64, 1) / space.total_bits(IsaKind::Sira32, 1),
        8,
        "4x integer growth + FP file"
    );
}

/// A deliberate fault in the stack pointer must surface as UT (the
/// §4.1.4 wrong-address channel), and a PC flip on SIRA-32 as UT/Hang.
#[test]
fn critical_register_faults_have_critical_outcomes() {
    let scenario = Scenario::new(App::Is, Model::Serial, 1, IsaKind::Sira32).unwrap();
    let workload = Workload::from_scenario(&scenario).unwrap();
    let (golden, _) = golden_run(&workload);
    let limits = Limits {
        max_cycles: golden.cycles * 4,
        max_steps: u64::MAX,
    };

    // Flip a high bit of SP (r13) mid-run.
    let mut kernel = Kernel::boot(&workload.image, 1, workload.spec);
    assert!(kernel
        .run_until_core_cycle(0, golden.cycles / 2, &limits)
        .is_none());
    kernel.machine_mut().flip_gpr(0, 13, 24);
    kernel.run(&limits);
    let outcome = fracas::inject::classify(&golden, &kernel.report());
    assert!(
        matches!(outcome, Outcome::Ut | Outcome::Hang),
        "SP corruption should crash or hang, got {outcome}"
    );

    // Flip a mid bit of the architected PC (r15).
    let mut kernel = Kernel::boot(&workload.image, 1, workload.spec);
    assert!(kernel
        .run_until_core_cycle(0, golden.cycles / 2, &limits)
        .is_none());
    kernel.machine_mut().flip_gpr(0, 15, 17);
    kernel.run(&limits);
    let outcome = fracas::inject::classify(&golden, &kernel.report());
    assert!(
        matches!(outcome, Outcome::Ut | Outcome::Hang | Outcome::Omm),
        "PC corruption must not vanish silently as ONA, got {outcome}"
    );
}

/// Faults injected after the application finished its real work are far
/// more likely to vanish — sanity for the lifespan-uniform model.
#[test]
fn late_faults_mask_more_often() {
    let scenario = Scenario::new(App::Ep, Model::Serial, 1, IsaKind::Sira64).unwrap();
    let workload = Workload::from_scenario(&scenario).unwrap();
    let (golden, _) = golden_run(&workload);
    let limits = Limits {
        max_cycles: golden.cycles * 4,
        max_steps: u64::MAX,
    };

    let count_masked = |cycle: u64| -> usize {
        let faults =
            fracas::inject::sample_faults(IsaKind::Sira64, 1, 1, 30, &FaultSpace::default(), 5);
        faults
            .iter()
            .filter(|f| {
                let fault = Fault {
                    target: f.target,
                    cycle,
                    width: 1,
                };
                let mut kernel = Kernel::boot(&workload.image, 1, workload.spec);
                if kernel
                    .run_until_core_cycle(0, fault.cycle, &limits)
                    .is_none()
                {
                    fault.apply(&mut kernel);
                    kernel.run(&limits);
                }
                fracas::inject::classify(&golden, &kernel.report()).is_masked()
            })
            .count()
    };
    let early = count_masked(golden.cycles / 10);
    let late = count_masked(golden.cycles - 2);
    assert!(
        late >= early,
        "late faults should mask at least as often: early {early}, late {late}"
    );
    assert!(
        late >= 20,
        "faults at the last cycles are mostly harmless: {late}"
    );
}

/// Full campaign through the facade plus mining over it.
#[test]
fn campaign_to_mining_pipeline() {
    let isa = IsaKind::Sira64;
    let scenarios: Vec<Scenario> = [
        Scenario::new(App::Is, Model::Mpi, 2, isa),
        Scenario::new(App::Is, Model::Omp, 2, isa),
    ]
    .into_iter()
    .flatten()
    .collect();
    let config = FleetConfig {
        campaign: CampaignConfig {
            faults: 40,
            threads: 1,
            ..CampaignConfig::default()
        },
        progress: true,
        ..FleetConfig::default()
    };
    let db = fracas::sweep_scenarios(&scenarios, &config).unwrap();

    let rows = fracas::mine::mismatch_rows(&db, isa);
    assert_eq!(rows.len(), 1);
    assert!(rows[0].mismatch >= 0.0);

    // Round-trip through the on-disk format.
    let text = db.to_json_lines();
    let back = fracas::mine::Database::from_json_lines(&text).unwrap();
    assert_eq!(back.len(), 2);
    let table = fracas::mine::outcome_table(&back, isa, Model::Mpi);
    assert!(table.contains("IS"));
}

/// The kernel's console, memory and context comparisons must be stable
/// across repeated golden runs of a parallel scenario (regression guard
/// for scheduler determinism).
#[test]
fn parallel_golden_runs_are_reproducible() {
    for (app, model, cores) in [
        (App::Cg, Model::Omp, 4),
        (App::Mg, Model::Mpi, 4),
        (App::Dt, Model::Mpi, 2),
    ] {
        let scenario = Scenario::new(app, model, cores, IsaKind::Sira64).unwrap();
        let workload = Workload::from_scenario(&scenario).unwrap();
        let (a, _) = golden_run(&workload);
        let (b, _) = golden_run(&workload);
        assert_eq!(a, b, "{}", scenario.id());
    }
}
