//! Criterion benchmarks for the campaign machinery, including two
//! DESIGN.md ablations: injection-job batching (the paper's §3.2.4 HPC
//! job-packing argument) and the cache timing model's contribution.

use criterion::{criterion_group, criterion_main, Criterion};
use fracas::inject::{
    campaign_limits, golden_run, golden_run_with_checkpoints, inject_one, run_campaign,
    sample_faults, CampaignConfig, CheckpointSet, Workload,
};
use fracas::kernel::{BootSpec, Kernel, Limits};
use fracas::mem::CacheParams;
use fracas::npb::{App, Model, Scenario};
use std::hint::black_box;

fn workload() -> Workload {
    let scenario = Scenario::new(App::Is, Model::Serial, 1, fracas::isa::IsaKind::Sira64)
        .expect("scenario exists");
    Workload::from_scenario(&scenario).expect("build")
}

fn bench_golden(c: &mut Criterion) {
    let w = workload();
    c.bench_function("golden_run_is_ser", |b| {
        b.iter(|| black_box(golden_run(&w).0.cycles));
    });
}

fn bench_campaign_batching(c: &mut Criterion) {
    let w = workload();
    let mut group = c.benchmark_group("campaign_batching");
    group.sample_size(10);
    for batch in [1usize, 8] {
        group.bench_function(format!("batch_{batch}"), |b| {
            b.iter(|| {
                let result = run_campaign(
                    &w,
                    &CampaignConfig {
                        faults: 12,
                        batch,
                        threads: 1,
                        ..CampaignConfig::default()
                    },
                );
                black_box(result.tally.total())
            });
        });
    }
    group.finish();
}

/// The injection engine's two replay strategies on the same fault list:
/// resuming from golden-run checkpoints (with reconvergence pruning)
/// versus replaying every injection from boot. The ratio of the two
/// medians is the campaign speedup the checkpoint engine buys.
fn bench_checkpoint_vs_boot_replay(c: &mut Criterion) {
    // EP's golden run exceeds 100k cycles, so boot-replay pays the full
    // prefix cost the checkpoint ladder exists to avoid.
    let scenario = Scenario::new(App::Ep, Model::Serial, 1, fracas::isa::IsaKind::Sira64)
        .expect("scenario exists");
    let w = Workload::from_scenario(&scenario).expect("build");
    let config = CampaignConfig::default();
    let (golden, _, checkpoints) = golden_run_with_checkpoints(&w, config.checkpoints);
    let faults = sample_faults(
        w.image.isa,
        w.cores as u32,
        golden.cycles,
        24,
        &config.space,
        config.seed,
    );
    let limits = campaign_limits(&golden, &config);
    let boot_only = CheckpointSet::empty();
    let mut group = c.benchmark_group("checkpoint_engine");
    group.sample_size(10);
    group.bench_function("resume", |b| {
        b.iter(|| {
            for f in &faults {
                black_box(inject_one(&w, f, &checkpoints, &limits, None));
            }
        });
    });
    group.bench_function("boot_replay", |b| {
        b.iter(|| {
            for f in &faults {
                black_box(inject_one(&w, f, &boot_only, &limits, None));
            }
        });
    });
    group.finish();
}

/// Ablation: golden run with the paper's cache hierarchy vs a
/// zero-latency memory model — quantifies how much of the cycle count
/// (and thus of the vulnerability-window timing) the cache model carries.
fn bench_cache_ablation(c: &mut Criterion) {
    let scenario = Scenario::new(App::Mg, Model::Serial, 1, fracas::isa::IsaKind::Sira64)
        .expect("scenario exists");
    let image = std::sync::Arc::new(scenario.build().expect("build"));
    let mut group = c.benchmark_group("cache_ablation");
    group.sample_size(10);
    for (name, cache) in [
        ("paper_caches", CacheParams::paper()),
        (
            "zero_latency",
            CacheParams {
                l2_hit_cycles: 0,
                mem_cycles: 0,
                ..CacheParams::paper()
            },
        ),
    ] {
        let spec = BootSpec {
            cache,
            ..BootSpec::serial()
        };
        let image = image.clone();
        group.bench_function(name, move |b| {
            b.iter(|| {
                let mut kernel = Kernel::boot(&image, 1, spec);
                assert!(kernel.run(&Limits::default()).is_clean_exit());
                black_box(kernel.report().cycles)
            });
        });
    }
    group.finish();
}

/// Ablation: scheduler preemption quantum on an oversubscribed OMP
/// workload (4 threads on 2 cores).
fn bench_quantum_ablation(c: &mut Criterion) {
    let scenario = Scenario::new(App::Cg, Model::Omp, 4, fracas::isa::IsaKind::Sira64)
        .expect("scenario exists");
    let image = std::sync::Arc::new(scenario.build().expect("build"));
    let mut group = c.benchmark_group("quantum_ablation");
    group.sample_size(10);
    for quantum in [2_000u64, 20_000, 200_000] {
        let spec = BootSpec {
            omp_threads: 4,
            quantum,
            ..BootSpec::serial()
        };
        let image = image.clone();
        group.bench_function(format!("quantum_{quantum}"), move |b| {
            b.iter(|| {
                let mut kernel = Kernel::boot(&image, 2, spec);
                assert!(kernel.run(&Limits::default()).is_clean_exit());
                black_box(kernel.report().cycles)
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_golden, bench_campaign_batching, bench_checkpoint_vs_boot_replay,
        bench_cache_ablation, bench_quantum_ablation
}
criterion_main!(benches);
