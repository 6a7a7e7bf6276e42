//! Property tests for incremental snapshots.
//!
//! [`PhysMem::snapshot_since`] is exact only if every writer of physical
//! memory marks the pages it touches dirty. These properties drive
//! random write sequences through every writer, chain incremental
//! snapshots over [`PhysMem::take_dirty`] the way checkpoint capture
//! does, and hold each one to the full snapshot of the same instant and
//! to a byte comparison over all of memory. [`PhysMem::snapshot`]
//! visits only pages ever written, so the chain also continues on
//! restored memories, whose written pages come from the snapshot.

use fracas_mem::{MemSnapshot, PhysMem};
use proptest::prelude::*;

const PAGE: u32 = 4096;
/// Eight whole pages plus a partial tail page, so the short last page
/// is exercised too.
const SIZE: u32 = 8 * PAGE + 100;

/// One step of a write sequence.
#[derive(Debug, Clone)]
enum Op {
    U8(u32, u8),
    U32(u32, u32),
    U64(u32, u64),
    Bytes(u32, Vec<u8>),
    Zero(u32, u32),
    /// Re-zeroes a whole page (the short tail page included).
    ZeroPage(u32),
    /// Takes the next snapshot of the chain.
    Snap,
}

/// Values that are zero half the time, so pages also return to
/// all-zero and must drop out of the snapshot.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), any::<u64>()]
}

/// A start address near a page boundary (on either side) or anywhere.
fn addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        (1..SIZE / PAGE + 1, 0u32..16).prop_map(|(page, back)| page * PAGE - back - 1),
        0..SIZE,
    ]
}

/// A range `(start, len)` that fits in memory; lengths reach past a
/// page so ranges straddle page boundaries.
fn range() -> impl Strategy<Value = (u32, u32)> {
    (addr(), 0..2 * PAGE).prop_map(|(start, len)| (start, len.min(SIZE - start)))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (addr(), value()).prop_map(|(a, v)| Op::U8(a, v as u8)),
        (0..SIZE / 4, value()).prop_map(|(i, v)| Op::U32(i * 4, v as u32)),
        (0..SIZE / 8, value()).prop_map(|(i, v)| Op::U64(i * 8, v)),
        (range(), value()).prop_map(|((a, len), v)| {
            let bytes = (0..len).map(|i| (v >> (8 * (i % 8))) as u8).collect();
            Op::Bytes(a, bytes)
        }),
        range().prop_map(|(a, len)| Op::Zero(a, len)),
        (0..SIZE.div_ceil(PAGE)).prop_map(Op::ZeroPage),
        Just(Op::Snap),
    ]
}

fn apply(mem: &mut PhysMem, op: &Op) {
    match op {
        Op::U8(a, v) => mem.write_u8(*a, *v),
        Op::U32(a, v) => mem.write_u32(*a, *v),
        Op::U64(a, v) => mem.write_u64(*a, *v),
        Op::Bytes(a, bytes) => mem.write_bytes(*a, bytes),
        Op::Zero(a, len) => mem.zero_range(*a, *len),
        Op::ZeroPage(page) => {
            let start = page * PAGE;
            mem.zero_range(start, PAGE.min(SIZE - start))
        }
        Op::Snap => Ok(()),
    }
    .expect("generated accesses are in range and aligned");
}

proptest! {
    /// Every snapshot of an incremental chain equals the full snapshot
    /// taken at the same instant, page for page, and each one restores
    /// to a memory that matches the other. Every other link of the
    /// chain continues on the memory restored from its snapshot.
    #[test]
    fn incremental_chain_equals_full_scan(ops in proptest::collection::vec(op(), 1..80)) {
        let mut mem = PhysMem::new(SIZE);
        let mut prev: Option<MemSnapshot> = None;
        let snaps = ops.iter().filter(|op| matches!(op, Op::Snap)).count() + 1;
        let mut ops = ops.iter();
        for link in 0..snaps {
            for op in ops.by_ref().take_while(|op| !matches!(op, Op::Snap)) {
                apply(&mut mem, op);
            }
            // Incremental from the previous snapshot over the pages
            // written since it; the chain's first is the full scan.
            let dirty = mem.take_dirty();
            let incremental = match &prev {
                Some(base) => mem.snapshot_since(base, &dirty),
                None => mem.snapshot(),
            };
            let full = mem.snapshot();
            prop_assert!(incremental == full, "incremental snapshot differs from full scan");
            prop_assert!(incremental.restore().matches_snapshot(&full));
            prop_assert!(full.restore().matches_snapshot(&incremental));
            prop_assert!(mem.matches_snapshot(&incremental));
            if link % 2 == 1 {
                mem = incremental.restore();
            }
            prev = Some(incremental);
        }
    }
}
