//! Equivalence properties for copy-on-write state views.
//!
//! The contract under test: a [`StateView`] taken at any point in an
//! arbitrary interleaving of mutations, snapshots, reverts, and seals is
//! byte-equal to an **eagerly deep-cloned** `StateDb` taken at the same
//! instant — and stays that way while the live state keeps mutating.
//! `deep_clone` is the old O(state) clone semantics, kept precisely to
//! serve as the oracle here (and as the RAA-STATE bench baseline).
//!
//! The second contract: the incremental state root (a cached tree carried
//! from parent to child and advanced over the accounts changed since)
//! equals the from-scratch [`common::accounts_root`] oracle after every
//! op, on every branch of a forked state, and on every view.

use bytes::Bytes;
use proptest::prelude::*;
use sereth_chain::state::{Account, Snapshot, StateDb, StateView};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_types::u256::U256;
use sereth_vm::exec::{ContractCode, Storage};

mod common;

/// One step of the interleaved workload. Mutations mirror every journaled
/// entry kind; the control ops exercise the journal machinery around the
/// COW boundary.
#[derive(Debug, Clone)]
enum Op {
    Credit(u8, u64),
    Debit(u8, u64),
    SetNonce(u8, u64),
    SetCode(u8, u8),
    Store(u8, u8, u64),
    /// Push a journal snapshot.
    Snapshot,
    /// Revert to the most recent unconsumed snapshot (no-op if none).
    Revert,
    /// Seal: clear the journal, dropping all snapshots (block boundary).
    Seal,
    /// Capture a `StateView` plus its eager deep-clone oracle.
    TakeView,
    /// Root the current branch, then start a new branch as its clone:
    /// two children of one cached parent (root properties only).
    Fork,
    /// Make branch `n % branches` the current one (root properties only).
    Switch(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u64>()).prop_map(|(a, v)| Op::Credit(a, v % 1_000_000)),
        (any::<u8>(), any::<u64>()).prop_map(|(a, v)| Op::Debit(a, v % 1_000_000)),
        (any::<u8>(), any::<u64>()).prop_map(|(a, v)| Op::SetNonce(a, v % 100)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::SetCode(a, b)),
        (any::<u8>(), any::<u8>(), any::<u64>()).prop_map(|(a, k, v)| Op::Store(a, k, v % 1_000)),
        Just(Op::Snapshot),
        Just(Op::Revert),
        Just(Op::Seal),
        Just(Op::TakeView),
    ]
}

fn addr(n: u8) -> Address {
    Address::from_low_u64(n as u64)
}

/// A captured (view, oracle) pair, tagged with the op index it was taken
/// at for failure messages.
struct Capture {
    at: usize,
    view: StateView,
    oracle: StateDb,
}

/// Applies one *mutation* op (the journaled kinds); the control ops are
/// the interpreter loop's job in [`run_ops`].
fn run_one(state: &mut StateDb, op: &Op) {
    match op {
        Op::Credit(a, v) => state.credit(&addr(*a), U256::from(*v)),
        Op::Debit(a, v) => {
            let _ = state.debit(&addr(*a), U256::from(*v));
        }
        Op::SetNonce(a, v) => state.set_nonce(&addr(*a), *v),
        Op::SetCode(a, b) => {
            let code =
                if *b == 0 { ContractCode::None } else { ContractCode::Bytecode(Bytes::from(vec![*b])) };
            state.set_code(&addr(*a), code);
        }
        Op::Store(a, k, v) => {
            state.storage_set(&addr(*a), H256::from_low_u64(*k as u64), H256::from_low_u64(*v));
        }
        Op::Snapshot | Op::Revert | Op::Seal | Op::TakeView | Op::Fork | Op::Switch(_) => {
            unreachable!("control op given to run_one")
        }
    }
}

fn run_ops(ops: &[Op]) -> (StateDb, Vec<Capture>) {
    let mut state = StateDb::new();
    let mut snapshots: Vec<Snapshot> = Vec::new();
    let mut captures = Vec::new();
    for (at, op) in ops.iter().enumerate() {
        match op {
            Op::Snapshot => snapshots.push(state.snapshot()),
            Op::Revert => {
                if let Some(snapshot) = snapshots.pop() {
                    state.revert_to(snapshot);
                }
            }
            Op::Seal => {
                state.clear_journal();
                snapshots.clear();
            }
            Op::TakeView => {
                captures.push(Capture { at, view: state.view(), oracle: state.deep_clone() });
            }
            Op::Fork | Op::Switch(_) => unreachable!("op_strategy makes no branches"),
            mutation => run_one(&mut state, mutation),
        }
    }
    (state, captures)
}

/// Full byte-level comparison: same addresses, same nonce/balance/code,
/// same storage maps — not just matching commitments.
fn assert_view_matches(view: &StateView, oracle: &StateDb, at: usize) -> Result<(), TestCaseError> {
    let viewed: Vec<(Address, Account)> = view.iter().map(|(a, acct)| (*a, acct.clone())).collect();
    let expected: Vec<(Address, Account)> = oracle.iter().map(|(a, acct)| (*a, acct.clone())).collect();
    prop_assert_eq!(&viewed, &expected, "account content diverged for view taken at op {}", at);
    prop_assert_eq!(view.state_root(), oracle.state_root(), "root diverged for view taken at op {}", at);
    prop_assert_eq!(view.len(), oracle.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The headline property: every view captured during an arbitrary
    /// interleaving — including reverts that cross the COW boundary and
    /// seals that drop the journal — equals its eager deep-clone oracle
    /// once the whole sequence has run.
    #[test]
    fn views_equal_eager_deep_clones_at_every_capture_point(
        ops in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        let (live, captures) = run_ops(&ops);
        for capture in &captures {
            assert_view_matches(&capture.view, &capture.oracle, capture.at)?;
        }
        // And a view of the final state equals a deep clone of it.
        assert_view_matches(&live.view(), &live.deep_clone(), ops.len())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Focused variant: force the revert-across-COW-boundary shape — a
    /// snapshot, mutations, a view *inside* the journaled region, then a
    /// revert. The view must keep the pre-revert bytes; the live state
    /// must equal a state that never had the suffix applied.
    #[test]
    fn revert_after_view_capture_unshares_instead_of_rewriting(
        prefix in proptest::collection::vec(op_strategy(), 0..20),
        suffix in proptest::collection::vec(op_strategy(), 1..20),
    ) {
        // Strip control ops from the suffix so the revert window is pure
        // mutation (snapshots inside it would be consumed by our revert).
        let suffix: Vec<Op> = suffix
            .into_iter()
            .filter(|op| !matches!(op, Op::Snapshot | Op::Revert | Op::Seal | Op::TakeView))
            .collect();

        let (mut state, _) = run_ops(&prefix);
        let root_before = state.state_root();
        let snapshot = state.snapshot();
        for op in &suffix {
            run_one(&mut state, op);
        }
        let view = state.view();
        let oracle = state.deep_clone();

        state.revert_to(snapshot);
        prop_assert_eq!(state.state_root(), root_before, "revert restored the live state");
        // The held view is untouched by the revert.
        assert_view_matches(&view, &oracle, prefix.len() + suffix.len())?;
    }

    /// Views are first-class for the executor's read path: storage reads
    /// through the view agree with the oracle for every (account, slot)
    /// the workload ever touched.
    #[test]
    fn view_reads_agree_with_oracle_reads(
        ops in proptest::collection::vec(op_strategy(), 0..40),
    ) {
        let (state, _) = run_ops(&ops);
        let view = state.view();
        let oracle = state.deep_clone();
        for a in 0u8..=255 {
            let address = addr(a);
            prop_assert_eq!(view.nonce_of(&address), oracle.nonce_of(&address));
            prop_assert_eq!(view.balance_of(&address), oracle.balance_of(&address));
            prop_assert_eq!(view.code_of(&address), oracle.code_of(&address));
            for k in 0u8..4 {
                let key = H256::from_low_u64(k as u64);
                prop_assert_eq!(view.storage_get(&address, &key), oracle.storage_get(&address, &key));
            }
        }
    }
}

/// The root properties write to addresses below this, over a base state
/// that funds up to [`BASE_MAX`] accounts: most writes hit existing
/// accounts (the cached tree's path-rehash case) and the rest create
/// accounts (its rebuild case).
const ROOT_ADDRESSES: u8 = 40;
const BASE_MAX: u64 = 70;

fn root_op_strategy() -> impl Strategy<Value = Op> {
    let address = || 0..ROOT_ADDRESSES;
    prop_oneof![
        (address(), any::<u64>()).prop_map(|(a, v)| Op::Credit(a, v % 1_000_000)),
        (address(), any::<u64>()).prop_map(|(a, v)| Op::Debit(a, v % 1_000_000)),
        (address(), any::<u64>()).prop_map(|(a, v)| Op::SetNonce(a, v % 100)),
        (address(), any::<u8>()).prop_map(|(a, b)| Op::SetCode(a, b % 3)),
        // Small values: zero deletes the slot.
        (address(), 0u8..4, any::<u64>()).prop_map(|(a, k, v)| Op::Store(a, k, v % 3)),
        Just(Op::Snapshot),
        Just(Op::Revert),
        Just(Op::Seal),
        Just(Op::TakeView),
        Just(Op::Fork),
        any::<u8>().prop_map(Op::Switch),
    ]
}

/// One line of descent of the state, with its open snapshots.
#[derive(Clone)]
struct Branch {
    state: StateDb,
    snapshots: Vec<Snapshot>,
}

fn assert_root_is_exact(state: &StateDb, what: &str, at: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        state.state_root(),
        common::accounts_root(state.iter()),
        "{} root diverged at op {}",
        what,
        at
    );
    Ok(())
}

/// Runs `ops` over a base of `base` funded accounts whose root is taken
/// (so the first child derives from a cached parent). With
/// `root_every_op` the current branch is rooted after every op;
/// otherwise only at seals and forks, so the cached tree goes stale
/// across whole runs of writes, snapshots and reverts before it is
/// advanced. Every branch and every view is checked at the end.
fn run_rooted(base: u64, ops: &[Op], root_every_op: bool) -> Result<(), TestCaseError> {
    let mut state = StateDb::new();
    for n in 0..base {
        state.credit(&Address::from_low_u64(n), U256::from(1_000 + n));
    }
    state.clear_journal();
    assert_root_is_exact(&state, "base", 0)?;
    let mut branches = vec![Branch { state, snapshots: Vec::new() }];
    let mut current = 0;
    // (op index, view, the view's oracle root when taken)
    let mut views: Vec<(usize, StateView, H256)> = Vec::new();
    for (at, op) in ops.iter().enumerate() {
        let forkable = branches.len() < 4;
        let branch = &mut branches[current];
        match op {
            Op::Snapshot => branch.snapshots.push(branch.state.snapshot()),
            Op::Revert => {
                if let Some(snapshot) = branch.snapshots.pop() {
                    branch.state.revert_to(snapshot);
                }
            }
            Op::Seal => {
                branch.state.clear_journal();
                branch.snapshots.clear();
                assert_root_is_exact(&branch.state, "sealed", at)?;
            }
            Op::TakeView => {
                let view = branch.state.view();
                let oracle = common::accounts_root(view.iter());
                prop_assert_eq!(view.state_root(), oracle, "view root diverged at op {}", at);
                views.push((at, view, oracle));
            }
            Op::Fork => {
                if forkable {
                    assert_root_is_exact(&branch.state, "forked parent", at)?;
                    let child = branch.clone();
                    branches.push(child);
                }
            }
            Op::Switch(n) => current = *n as usize % branches.len(),
            mutation => run_one(&mut branch.state, mutation),
        }
        if root_every_op {
            assert_root_is_exact(&branches[current].state, "live", at)?;
        }
    }
    for (index, branch) in branches.iter().enumerate() {
        assert_root_is_exact(&branch.state, &format!("branch {index}"), ops.len())?;
    }
    for (at, view, oracle) in &views {
        prop_assert_eq!(view.state_root(), *oracle, "view taken at op {} drifted", at);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(64)))]

    /// The incremental root equals the from-scratch oracle after every op.
    #[test]
    fn incremental_root_equals_the_oracle_after_every_op(
        base in 0..BASE_MAX,
        ops in proptest::collection::vec(root_op_strategy(), 0..60),
    ) {
        run_rooted(base, &ops, true)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(192)))]

    /// The same with roots taken only at block boundaries and forks: each
    /// advance spans many writes, reverts and account creations.
    #[test]
    fn incremental_root_equals_the_oracle_across_stale_spans(
        base in 0..BASE_MAX,
        ops in proptest::collection::vec(root_op_strategy(), 0..80),
    ) {
        run_rooted(base, &ops, false)?;
    }
}
