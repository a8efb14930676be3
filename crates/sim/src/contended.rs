//! The `contended_market` scenario: a single Sereth market hammered by
//! many buyers, mined in parallel.
//!
//! Every candidate in every block touches the same contract slots (the
//! market's mark and value), so this is the parallel executor's worst
//! case: speculation can barely ever commit fast, the merge loop's
//! fallback and the adaptive sequential degradation carry the block, and
//! the result must *still* be byte-identical to a sequential miner's
//! chain. A twin node running `ExecMode::Sequential` over the identical
//! transaction feed is the oracle: after every block the two heads are
//! compared, and the run fails on the first divergence. A follower
//! replaying the parallel miner's blocks on the wave executor puts the
//! same conflict storm through parallel replay validation.

use sereth_chain::builder::BlockLimits;
use sereth_chain::genesis::{Genesis, GenesisBuilder};
use sereth_chain::parallel::{ExecMode, ExecStats};
use sereth_chain::validation::ValidationMode;
use sereth_core::fpv::{Flag, Fpv};
use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_node::contract::{
    buy_selector, default_contract_address, sereth_code, sereth_genesis_slots, set_selector, ContractForm,
};
use sereth_node::miner::MinerPolicy;
use sereth_node::node::{BlockReceipt, NodeConfig, NodeHandle};
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;

/// Configuration of the contended-market run.
#[derive(Debug, Clone)]
pub struct ContendedConfig {
    /// Buyer clients, all bidding on the one market every round.
    pub buyers: usize,
    /// Rounds (one `set` + one block per round).
    pub rounds: usize,
    /// Worker threads of the parallel miner.
    pub threads: usize,
    /// Initial market price.
    pub initial_price: u64,
}

impl Default for ContendedConfig {
    fn default() -> Self {
        Self { buyers: 24, rounds: 5, threads: 4, initial_price: 50 }
    }
}

/// What the run observed.
#[derive(Debug, Clone)]
pub struct ContendedReport {
    /// Blocks mined (and head-compared) per node.
    pub blocks: u64,
    /// Transactions committed on the parallel node's chain.
    pub txs_committed: u64,
    /// The parallel miner's cumulative executor counters.
    pub stats: ExecStats,
    /// The follower's cumulative *replay-validation* counters: it imports
    /// every block the parallel miner seals under
    /// `ValidationMode::Parallel`, so the same conflict storm hits the
    /// validation path.
    pub validation_stats: ExecStats,
    /// `true` iff every block matched the sequential oracle's.
    pub heads_match: bool,
}

fn contended_genesis(config: &ContendedConfig, owner: &SecretKey, buyers: &[SecretKey]) -> Genesis {
    let mut genesis_builder =
        GenesisBuilder::new().fund(owner.address(), U256::from(u64::MAX / 2)).contract_with_storage(
            default_contract_address(),
            sereth_code(ContractForm::Native),
            sereth_genesis_slots(&owner.address(), H256::from_low_u64(config.initial_price)),
        );
    for key in buyers {
        genesis_builder = genesis_builder.fund(key.address(), U256::from(u64::MAX / 2));
    }
    genesis_builder.build()
}

fn contended_node(
    config: &ContendedConfig,
    owner: &SecretKey,
    buyers: &[SecretKey],
    mode: ExecMode,
    validation_mode: ValidationMode,
) -> NodeHandle {
    NodeHandle::new(
        contended_genesis(config, owner, buyers),
        NodeConfig::miner(default_contract_address(), MinerPolicy::Standard)
            .coinbase(Address::from_low_u64(0xc0b1))
            .limits(BlockLimits { gas_limit: 64_000_000, max_txs: None })
            .exec_mode(mode)
            .validation_mode(validation_mode)
            .build(),
    )
}

fn market_tx(
    key: &SecretKey,
    nonce: u64,
    selector: [u8; 4],
    flag: Flag,
    prev: H256,
    value: u64,
) -> Transaction {
    Transaction::sign(
        TxPayload {
            nonce,
            gas_price: 1,
            gas_limit: 200_000,
            to: Some(default_contract_address()),
            value: U256::ZERO,
            input: Fpv::new(flag, prev, H256::from_low_u64(value)).to_calldata(selector),
        },
        key,
    )
}

/// Runs the scenario: `rounds` blocks of 100 %-conflicting market traffic
/// mined by a parallel node, head-checked against a sequential twin.
///
/// # Panics
///
/// Panics on the first block whose hash diverges between the two miners —
/// the scenario is an equivalence check first, a stress test second.
pub fn run_contended_market(config: &ContendedConfig) -> ContendedReport {
    let owner = SecretKey::from_label(4_000);
    let buyers: Vec<SecretKey> =
        (0..config.buyers).map(|b| SecretKey::from_label(4_100 + b as u64)).collect();

    // A miner adopts its own sealed blocks without replaying them, so a
    // follower replays the parallel miner's blocks on the wave executor:
    // the scenario exercises 100 %-conflicting parallel validation too,
    // and the sequential twin is the oracle on both paths.
    let parallel = contended_node(
        config,
        &owner,
        &buyers,
        ExecMode::Parallel { threads: config.threads },
        ValidationMode::Parallel { threads: config.threads },
    );
    let sequential =
        contended_node(config, &owner, &buyers, ExecMode::Sequential, ValidationMode::Sequential);
    let follower = NodeHandle::new(
        contended_genesis(config, &owner, &buyers),
        NodeConfig::geth(default_contract_address())
            .validation_mode(ValidationMode::Parallel { threads: config.threads })
            .build(),
    );

    let mut now = 1u64;
    let mut mark = genesis_mark();
    let mut price = config.initial_price;
    let mut txs_committed = 0u64;
    for round in 0..config.rounds {
        // Every buyer bids against the committed state; all of them read
        // the same mark/value slots the round's repricing writes.
        for (b, key) in buyers.iter().enumerate() {
            let buy = market_tx(key, round as u64, buy_selector(), Flag::Success, mark, price);
            assert!(parallel.receive_tx(buy.clone(), now + b as u64));
            assert!(sequential.receive_tx(buy, now + b as u64));
        }
        now += config.buyers as u64;
        let next_price = config.initial_price + 10 * (round as u64 + 1);
        let flag = if round == 0 { Flag::Head } else { Flag::Success };
        let set = market_tx(&owner, round as u64, set_selector(), flag, mark, next_price);
        assert!(parallel.receive_tx(set.clone(), now));
        assert!(sequential.receive_tx(set, now));
        now += 1;

        let timestamp = 15_000 * (round as u64 + 1);
        let par_block = parallel.mine(timestamp).expect("parallel miner seals");
        let seq_block = sequential.mine(timestamp).expect("sequential miner seals");
        assert_eq!(
            par_block.hash(),
            seq_block.hash(),
            "contended block {round} diverged between parallel and sequential mining"
        );
        assert_eq!(
            follower.receive_block(par_block.clone()),
            BlockReceipt::Imported,
            "the follower must accept contended block {round}"
        );
        txs_committed += par_block.transactions.len() as u64;
        mark = compute_mark(&mark, &H256::from_low_u64(next_price));
        price = next_price;
    }

    ContendedReport {
        blocks: config.rounds as u64,
        txs_committed,
        stats: parallel.exec_stats(),
        validation_stats: follower.validation_stats(),
        heads_match: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contended_market_exercises_the_fallback_path_and_stays_equivalent() {
        let report = run_contended_market(&ContendedConfig::default());
        assert!(report.heads_match);
        assert_eq!(report.blocks, 5);
        assert!(report.txs_committed > 0);
        // The whole point of the scenario: the conflict machinery ran.
        assert!(
            report.stats.fallbacks > 0,
            "100 %-conflicting traffic must trigger mis-speculation fallbacks: {:?}",
            report.stats
        );
        assert!(report.stats.waves > 0);
        // The replay path ran the same machinery: the follower
        // re-validated every sealed block on the wave executor.
        assert!(
            report.validation_stats.waves > 0,
            "parallel replay validation must have run: {:?}",
            report.validation_stats
        );
        assert!(report.validation_stats.fallbacks + report.validation_stats.sequential_txs > 0);
    }

    #[test]
    fn contended_market_single_thread_degenerates_cleanly() {
        let config = ContendedConfig { buyers: 8, rounds: 3, threads: 1, ..ContendedConfig::default() };
        let report = run_contended_market(&config);
        assert!(report.heads_match);
        assert_eq!(report.blocks, 3);
    }
}
