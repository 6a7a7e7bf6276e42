//! Checkpoint-and-restore support for injection campaigns.
//!
//! Re-running every injection from boot costs the full golden runtime
//! per fault just to *reach* the injection point. Instead, the golden
//! run (phase one) captures a set of evenly spaced kernel snapshots;
//! an injection then resumes from the latest snapshot strictly before
//! its fault cycle ([`CheckpointSet::nearest_before`]) and only replays
//! the short remaining prefix. Because the kernel is a deterministic
//! tick machine, the resumed run is bit-identical to a boot-and-replay
//! run — `tests/checkpoint.rs` keeps that invariant honest with a
//! differential comparison.
//!
//! A live class representative can start later still. Until the op
//! that ends its landing interval (its [`Horizon`]) nothing observes
//! the flip, so the faulty state at any snapshot between landing and
//! horizon is that golden snapshot plus the flip. Such a representative
//! restores the latest snapshot inside its interval
//! ([`CheckpointSet::latest_in_interval`]) and applies the flip there,
//! skipping the replay the interval argument proves golden.
//!
//! Capture is incremental. A snapshot's memory is a list of shared,
//! immutable 4 KiB pages, and `PhysMem` marks every page it writes.
//! Only the first rung scans all of physical memory for nonzero pages;
//! each later rung starts from its predecessor's page list, copies
//! afresh just the pages written since (the same dirty set the rung
//! records for reconvergence), and shares every other page by
//! reference. A rung therefore costs the pages one segment wrote, not
//! a 64 MiB scan, and the ladder holds each unchanged page once.
//!
//! On top of resume, the same ladder enables *reconvergence pruning*
//! ([`CheckpointSet::try_reconverge`]): after a register or flag fault
//! lands, the faulty run is paused at the next few checkpoint marks and
//! its complete state is compared against the golden snapshot taken at
//! the same mark. A hit proves the flipped bit left no trace — the
//! remainder of the run *is* the golden remainder, so the golden report
//! is returned without executing it. Physical memory makes that compare
//! affordable: capture records which pages each golden segment wrote,
//! `PhysMem` tracks pages the faulty run wrote since its restore point,
//! and only the union needs comparing — every other page is untouched
//! on both sides since the restore snapshot. Most register faults in
//! the paper's campaigns vanish (dead or masked bits), which is what
//! pushes the overall campaign speedup past the ~2x asymptote
//! prefix-skipping alone can reach.

use fracas_analyze::Horizon;
use fracas_kernel::{Kernel, KernelSnapshot, Limits, RunOutcome, RunReport};
use fracas_mem::PageSet;

/// First checkpoint mark in machine cycles. Small enough that short
/// workloads still get a useful ladder; the stride doubles adaptively
/// for long ones.
const INITIAL_STRIDE: u64 = 4096;

/// How many checkpoint marks past the injection point are probed for
/// golden reconvergence. Dead-bit faults are typically overwritten
/// within a stride or two; runs that have not reconverged by then
/// rarely do, and every extra probe costs a (cheap) state compare.
const RECONVERGE_PROBES: usize = 2;

/// One rung of the checkpoint ladder.
#[derive(Debug, Clone)]
struct Checkpoint {
    /// Machine-cycle mark this snapshot was captured at (the kernel
    /// paused at the first tick boundary where the machine clock
    /// reached the mark). Strictly increasing along the ladder.
    mark: u64,
    snap: KernelSnapshot,
    /// Pages the golden run wrote between the previous checkpoint (or
    /// boot) and this one.
    dirty_since_prev: PageSet,
}

/// Golden-run completion data needed to prune reconverged faulty runs.
#[derive(Debug, Clone)]
struct GoldenEnd {
    report: RunReport,
    steps: u64,
}

/// An ordered set of kernel checkpoints captured during one golden run.
///
/// Snapshots are stored in capture order, which (per-core clocks being
/// monotone over ticks) is also nondecreasing order of every core's
/// cycle clock — so checkpoint selection can binary-search. An
/// injection resumes strictly before its fault cycle
/// ([`CheckpointSet::nearest_before`]), or, for a live class
/// representative, inside its landing interval
/// ([`CheckpointSet::latest_in_interval`]).
#[derive(Debug, Clone, Default)]
pub struct CheckpointSet {
    snaps: Vec<Checkpoint>,
    /// Present when the golden run exited cleanly; enables
    /// [`CheckpointSet::try_reconverge`].
    golden: Option<GoldenEnd>,
}

impl CheckpointSet {
    /// A set with no checkpoints; every injection boots from scratch
    /// (the pre-checkpoint behaviour, kept for baselines and tests).
    pub fn empty() -> CheckpointSet {
        CheckpointSet::default()
    }

    /// Number of checkpoints held.
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// True when no checkpoints were captured.
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }

    /// The rungs in capture order: each machine-cycle mark with the
    /// snapshot taken there.
    pub fn rungs(&self) -> impl Iterator<Item = (u64, &KernelSnapshot)> {
        self.snaps.iter().map(|rung| (rung.mark, &rung.snap))
    }

    /// Runs `kernel` to completion while capturing between `target` and
    /// `2 * target` evenly spaced checkpoints (none when `target` is 0).
    ///
    /// The total run length is unknown up front, so the capturer starts
    /// with a fine cycle stride and adaptively thins: whenever
    /// `2 * target` snapshots accumulate, every other one is dropped and
    /// the stride doubles. The ladder stays evenly spaced at all times.
    ///
    /// `observe` gets the paused kernel at every rung, after the
    /// snapshot: the hook a traced golden run uses to digest its trace
    /// segment by segment.
    pub fn capture(
        kernel: &mut Kernel,
        target: usize,
        limits: &Limits,
        observe: &mut dyn FnMut(&mut Kernel),
    ) -> (RunOutcome, CheckpointSet) {
        if target == 0 {
            return (kernel.run(limits), CheckpointSet::empty());
        }
        // Dirty tracking restarts here so the first segment records
        // exactly the pages written after boot (boot itself clears the
        // bits, making fresh boots and snapshot restores symmetric).
        kernel.machine_mut().mem.clear_dirty();
        // `target` comes from the user; a huge one must neither overflow
        // nor size an allocation. It only ever means "never thin".
        let cap = target.saturating_mul(2);
        let mut snaps: Vec<Checkpoint> = Vec::new();
        let mut stride = INITIAL_STRIDE;
        let mut mark = stride;
        let outcome = loop {
            match kernel.run_until_machine_cycle(mark, limits) {
                Some(done) => break done,
                None => {
                    let dirty = kernel.machine_mut().mem.take_dirty();
                    // Thinning always keeps the newest rung, so the
                    // last rung is the previous capture and `dirty`
                    // holds every page written since it: only the
                    // first rung scans all of memory.
                    let snap = match snaps.last() {
                        Some(prev) => kernel.snapshot_since(&prev.snap, &dirty),
                        None => kernel.snapshot(),
                    };
                    snaps.push(Checkpoint {
                        mark,
                        snap,
                        dirty_since_prev: dirty,
                    });
                    observe(kernel);
                    if snaps.len() == cap {
                        // Drop the 1st, 3rd, 5th, … snapshot: the
                        // survivors sit exactly on multiples of the
                        // doubled stride. Each dropped rung's dirty set
                        // folds into its successor so `dirty_since_prev`
                        // keeps covering the whole previous segment.
                        let mut merged = Vec::with_capacity(cap / 2);
                        let mut iter = snaps.into_iter();
                        while let (Some(dropped), Some(mut kept)) = (iter.next(), iter.next()) {
                            kept.dirty_since_prev.union_with(&dropped.dirty_since_prev);
                            merged.push(kept);
                        }
                        snaps = merged;
                        stride *= 2;
                    }
                    mark += stride;
                }
            }
        };
        let golden = outcome.is_clean_exit().then(|| GoldenEnd {
            report: kernel.report(),
            steps: kernel.steps(),
        });
        (outcome, CheckpointSet { snaps, golden })
    }

    /// The latest checkpoint whose `core` clock is *strictly* before
    /// `cycle` — returned with its ladder index — or `None` when even
    /// the first checkpoint is too late (the caller then boots fresh).
    ///
    /// Strictness matters: `run_until_core_cycle(core, cycle, …)` pauses
    /// at the first tick boundary where the core clock reaches `cycle`;
    /// a snapshot already at or past that boundary would overshoot the
    /// injection point and diverge from a boot-and-replay run.
    pub fn nearest_before(&self, core: usize, cycle: u64) -> Option<(usize, &KernelSnapshot)> {
        let n = self
            .snaps
            .partition_point(|c| c.snap.core_cycles(core) < cycle);
        n.checked_sub(1).map(|i| (i, &self.snaps[i].snap))
    }

    /// The latest checkpoint inside a live fault's landing interval —
    /// returned with its ladder index — or `None` when the interval
    /// holds no rung. A rung qualifies when it is at or after the
    /// landing (`core`'s clock has reached `cycle`, so the flip is
    /// already in place) and strictly before `horizon` (its core's clock
    /// is below the horizon cycle, so the interval-ending op has not
    /// run).
    ///
    /// Between those two boundaries no op reads, writes or moves the
    /// flipped bits, so the faulty state at the rung is the golden
    /// snapshot plus the flip: restoring it and applying the flip
    /// continues exactly the run a restore before the landing would
    /// have reached (see `fracas_analyze::intervals`).
    pub fn latest_in_interval(
        &self,
        core: usize,
        cycle: u64,
        horizon: Horizon,
    ) -> Option<(usize, &KernelSnapshot)> {
        // Both predicates are monotone along the ladder: the latest rung
        // before the horizon is the only candidate worth checking.
        let n = self
            .snaps
            .partition_point(|c| c.snap.core_cycles(horizon.core) < horizon.cycle);
        let i = n.checked_sub(1)?;
        let snap = &self.snaps[i].snap;
        (snap.core_cycles(core) >= cycle).then_some((i, snap))
    }

    /// Golden-reconvergence pruning: advances the freshly injected
    /// `kernel` to the next `RECONVERGE_PROBES` checkpoint marks and
    /// compares its complete state against the golden snapshot captured
    /// at each mark. On a match the fault has provably left no trace —
    /// the continuation is by determinism the golden continuation — so
    /// the stored golden report is returned and the caller skips the
    /// rest of the run.
    ///
    /// `resumed_from` is the ladder index the kernel was restored from
    /// (`None` for a fresh boot). It anchors the memory bound: pages
    /// untouched by the golden run since that rung *and* untouched by
    /// the faulty run since its restore are identical by construction,
    /// so only the union of the two dirty sets is compared.
    ///
    /// Returns `None` (caller keeps running normally) when no probe
    /// matches, when the run ends mid-probe (the caller's follow-up
    /// `run` observes the recorded outcome idempotently), or when
    /// `limits` are tight enough that the golden continuation itself
    /// could have tripped them (the pruned result must stay
    /// bit-identical to an actually executed run).
    pub fn try_reconverge(
        &self,
        kernel: &mut Kernel,
        resumed_from: Option<usize>,
        limits: &Limits,
    ) -> Option<RunReport> {
        let golden = self.golden.as_ref()?;
        if golden.report.cycles >= limits.max_cycles || golden.steps >= limits.max_steps {
            return None;
        }
        let resumed_at = kernel.machine().max_cycles();
        let first = resumed_from.map_or(0, |i| i + 1);
        let mut golden_dirty = PageSet::default();
        let mut probes = 0;
        for rung in &self.snaps[first.min(self.snaps.len())..] {
            // Always accumulate: the memory bound must cover every
            // golden segment between the restore rung and the compare
            // mark, including marks the injection replay already passed.
            golden_dirty.union_with(&rung.dirty_since_prev);
            if rung.mark <= resumed_at {
                continue;
            }
            if kernel.run_until_machine_cycle(rung.mark, limits).is_some() {
                return None;
            }
            let mut touched = kernel.machine().mem.dirty_pages().clone();
            touched.union_with(&golden_dirty);
            if kernel.state_matches_within(&rung.snap, &touched) {
                return Some(golden.report.clone());
            }
            probes += 1;
            if probes == RECONVERGE_PROBES {
                break;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_never_selects() {
        let set = CheckpointSet::empty();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert!(set.nearest_before(0, u64::MAX).is_none());
        let horizon = Horizon {
            core: 0,
            cycle: u64::MAX,
        };
        assert!(set.latest_in_interval(0, 0, horizon).is_none());
    }
}
