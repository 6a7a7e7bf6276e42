//! The traced driver: one worker that runs a campaign through the
//! library's public calls, from outside the library, timing each call
//! as a layer span and counting the work each layer does.
//!
//! It reproduces the fleet's per-fault dispatch (decided verdicts,
//! class representatives and members, executed faults) so that its
//! records can be compared with the fleet's one for one.

use fracas::inject::{
    campaign_faults, class_plan, classify, golden_run_with_checkpoints, golden_trace,
    CampaignConfig, CheckpointSet, Fault, InjectionRecord, Outcome, Workload,
};
use fracas::kernel::{Kernel, Limits, RunReport};
use std::time::Instant;

/// Layer spans (seconds) and work counters, summed over every traced
/// pass.
#[derive(Debug, Default)]
pub struct Trace {
    pub build_s: f64,
    pub golden_s: f64,
    pub trace_s: f64,
    pub plan_s: f64,
    pub restore_s: f64,
    pub prefix_s: f64,
    pub flip_s: f64,
    pub reconverge_s: f64,
    pub tail_s: f64,
    pub classify_s: f64,
    pub sink_s: f64,
    /// Wall time of the driver passes, from the first golden run to the
    /// database write.
    pub wall_s: f64,
    /// Wall time of the untraced fleet at one thread over the same
    /// campaigns.
    pub fleet_1t_s: f64,
    pub images: u64,
    pub golden_inst: u64,
    pub checkpoints: u64,
    pub trace_events: u64,
    pub plan_faults: u64,
    pub decided: u64,
    pub live_classes: u64,
    pub members: u64,
    pub singletons: u64,
    pub restores: u64,
    pub boots: u64,
    pub prefix_inst: u64,
    pub reconverge_attempts: u64,
    pub reconverge_hits: u64,
    pub tail_inst: u64,
    pub hangs: u64,
    pub synthesized: u64,
    pub sink_bytes: u64,
    pub records: u64,
    pub executed: u64,
    /// Wall time of each executed injection, restore through classify.
    pub latencies: Vec<f64>,
}

impl Trace {
    /// Sum of the spans inside the driver passes (`build_s` precedes
    /// them).
    pub fn covered_s(&self) -> f64 {
        self.golden_s
            + self.trace_s
            + self.plan_s
            + self.restore_s
            + self.prefix_s
            + self.flip_s
            + self.reconverge_s
            + self.tail_s
            + self.classify_s
            + self.sink_s
    }
}

/// Runs `f`, adding its wall time to `span`.
pub fn time<T>(span: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    *span += start.elapsed().as_secs_f64();
    value
}

/// The faulty-run watchdog the fleet derives from the golden run.
fn limits(golden: &RunReport, config: &CampaignConfig) -> Limits {
    Limits {
        max_cycles: ((golden.cycles as f64 * config.watchdog_factor) as u64)
            .max(golden.cycles + 100_000),
        max_steps: (golden.total_instructions() * 8).max(1_000_000),
    }
}

/// Runs one workload's campaign through the traced layers and returns
/// its records in fault-index order.
pub fn drive(workload: &Workload, config: &CampaignConfig, t: &mut Trace) -> Vec<InjectionRecord> {
    let (golden, faults, checkpoints) = time(&mut t.golden_s, || {
        let (golden, _, checkpoints) = golden_run_with_checkpoints(workload, config.checkpoints);
        let faults = campaign_faults(workload, config, golden.cycles);
        (golden, faults, checkpoints)
    });
    t.golden_inst += golden.total_instructions();
    t.checkpoints += checkpoints.len() as u64;
    let limits = limits(&golden, config);
    let plan = config.prune_classes.then(|| {
        let (_, trace) = time(&mut t.trace_s, || golden_trace(workload));
        t.trace_events += trace.events.len() as u64;
        time(&mut t.plan_s, || class_plan(workload, &trace, &faults))
    });
    if let Some(plan) = &plan {
        let stats = plan.stats();
        t.plan_faults += u64::from(stats.faults);
        t.decided += u64::from(stats.decided);
        t.live_classes += u64::from(stats.live_classes);
        t.members += u64::from(stats.members);
        t.singletons += u64::from(stats.singletons);
    }
    let mut records: Vec<InjectionRecord> = Vec::with_capacity(faults.len());
    for (i, fault) in faults.iter().enumerate() {
        let synthesized = plan.as_ref().and_then(|plan| {
            time(&mut t.classify_s, || {
                if let Some(outcome) = plan.decided[i] {
                    return Some(InjectionRecord {
                        index: i as u32,
                        fault: *fault,
                        outcome,
                        cycles: golden.cycles,
                        instructions: golden.total_instructions(),
                        rep: None,
                    });
                }
                // Representatives and singletons execute. A member's
                // representative is its class's first fault, so its
                // record is already in `records`.
                let rep = plan.rep[i] as usize;
                if rep == i {
                    return None;
                }
                let rep = &records[rep];
                Some(InjectionRecord {
                    index: i as u32,
                    fault: *fault,
                    rep: Some(rep.index),
                    ..*rep
                })
            })
        });
        let record = match synthesized {
            Some(record) => {
                t.synthesized += 1;
                record
            }
            None => inject(workload, fault, i, &checkpoints, &limits, &golden, t),
        };
        records.push(record);
    }
    t.records += records.len() as u64;
    records
}

/// Executes one fault the way `fracas::inject::inject_one` does, one
/// span per step, and classifies it.
fn inject(
    workload: &Workload,
    fault: &Fault,
    index: usize,
    checkpoints: &CheckpointSet,
    limits: &Limits,
    golden: &RunReport,
    t: &mut Trace,
) -> InjectionRecord {
    let start = Instant::now();
    let core = fault.timing_core();
    let (mut kernel, rung) = time(&mut t.restore_s, || {
        match checkpoints.nearest_before(core, fault.cycle) {
            Some((rung, snap)) => (Kernel::restore(snap), Some(rung)),
            None => (
                Kernel::boot(&workload.image, workload.cores, workload.spec),
                None,
            ),
        }
    });
    t.restores += 1;
    t.boots += u64::from(rung.is_none());
    let before = kernel.machine().total_instructions();
    let paused = time(&mut t.prefix_s, || {
        kernel.run_until_core_cycle(core, fault.cycle, limits)
    });
    t.prefix_inst += kernel.machine().total_instructions() - before;
    let mut reconverged = None;
    if paused.is_none() {
        time(&mut t.flip_s, || fault.apply(&mut kernel));
        if fault.targets_ephemeral_state() {
            t.reconverge_attempts += 1;
            reconverged = time(&mut t.reconverge_s, || {
                checkpoints.try_reconverge(&mut kernel, rung, limits)
            });
            t.reconverge_hits += u64::from(reconverged.is_some());
        }
        if reconverged.is_none() {
            let before = kernel.machine().total_instructions();
            time(&mut t.tail_s, || kernel.run(limits));
            t.tail_inst += kernel.machine().total_instructions() - before;
        }
    }
    let record = time(&mut t.classify_s, || {
        let report = reconverged.unwrap_or_else(|| kernel.report());
        InjectionRecord {
            index: index as u32,
            fault: *fault,
            outcome: classify(golden, &report),
            cycles: report.cycles,
            instructions: report.total_instructions(),
            rep: None,
        }
    });
    t.hangs += u64::from(record.outcome == Outcome::Hang);
    t.executed += 1;
    t.latencies.push(start.elapsed().as_secs_f64());
    record
}
