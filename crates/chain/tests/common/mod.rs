//! Helpers shared by the sereth-chain integration test suites. Each
//! `tests/*.rs` file is its own crate and pulls this in with
//! `mod common;`, so knobs like the case-count scaling exist once and
//! the equivalence suites cannot drift apart.

/// Property-test case count: the suite's acceptance default, scaled by
/// `PROPTEST_CASES` — down in the CI quick lane, up in the nightly job.
pub fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The from-scratch state-root oracle: the Merkle root over every
/// account's hash in address order, rebuilt in full on each call. This is
/// the definition `StateDb::state_root`'s cached tree must reproduce byte
/// for byte.
#[allow(dead_code)] // only the suites that root states use it
pub fn accounts_root<'a>(
    accounts: impl Iterator<Item = (&'a sereth_crypto::address::Address, &'a sereth_chain::state::Account)>,
) -> sereth_crypto::hash::H256 {
    let leaves: Vec<_> = accounts.map(|(address, account)| account.account_hash(address)).collect();
    sereth_crypto::merkle::merkle_root(&leaves)
}
