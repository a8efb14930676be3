//! The workload inputs depend on the seed alone.

use std::collections::HashSet;

use nodebench::inputs::{account_keys, Op, OpStream, Spec, Workload};

fn small(workload: Workload) -> Spec {
    Spec { accounts: 2_000, ..workload.spec() }
}

/// Keys and the first rounds of operations, as bytes.
fn inputs(workload: Workload, seed: u64) -> Vec<u8> {
    let spec = small(workload);
    let (owner, keys) = account_keys(seed, spec.accounts);
    let mut out = owner.address().as_bytes().to_vec();
    for key in &keys {
        out.extend_from_slice(key.address().as_bytes());
    }
    let mut ops = OpStream::new(spec, seed);
    for _ in 0..4 * spec.round.len() {
        out.extend_from_slice(format!("{:?};", ops.next_op()).as_bytes());
    }
    out
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for workload in Workload::ALL {
        assert_eq!(inputs(workload, 7), inputs(workload, 7), "{workload:?}");
        assert_ne!(inputs(workload, 7), inputs(workload, 8), "{workload:?}: the seed must matter");
    }
}

#[test]
fn market_rounds_follow_the_mix() {
    let spec = small(Workload::Market);
    let mut ops = OpStream::new(spec, 1);
    let round: Vec<Op> = (0..spec.round.len()).map(|_| ops.next_op()).collect();
    let count = |pick: fn(&Op) -> bool| round.iter().filter(|op| pick(op)).count();
    assert_eq!(count(|op| matches!(op, Op::Set { .. })), 16);
    assert_eq!(count(|op| matches!(op, Op::Buy { .. })), 96);
    assert_eq!(count(|op| matches!(op, Op::Transfer { .. })), 32);
}

#[test]
fn transfer_wide_blocks_touch_each_account_once() {
    let spec = small(Workload::TransferWide);
    let mut ops = OpStream::new(spec, 1);
    for _ in 0..3 * spec.accounts / spec.round.len() {
        let mut touched = HashSet::new();
        for _ in 0..spec.round.len() {
            let Op::Transfer { from, to, .. } = ops.next_op() else { panic!("transfers only") };
            assert!(touched.insert(from) && touched.insert(to), "conflict-free within a block");
        }
    }
}
