//! Block validation by transaction replay.
//!
//! "To accept a published block every peer must perform block validation,
//! the task of checking that the block is consistent with the state of the
//! network … The process of peers redundantly validating transactions in a
//! block is called transaction replay" (paper §II-D). Replay is also what
//! defeats RAA tampering of signed transactions: a block containing a
//! mutated transaction fails signature checks here and is rejected by every
//! honest peer (§III-D).
//!
//! Because *every* peer replays *every* block, validation — not block
//! building — dominates network-wide compute. [`ValidationMode::Parallel`]
//! replays the block's fixed transaction order on the same conflict-aware
//! wave executor the builder uses (`crate::parallel::run_waves`):
//! speculate over a shared borrow of the parent state's copy, merge in
//! canonical order with dirty-key validation, fall back to
//! sequential re-execution on mis-speculation. The two modes are
//! **verdict-equivalent** — identical `Ok` artifacts and identical
//! [`ValidationError`] variants (including the [`BadTransaction`] index)
//! on tampered, reordered, gas-inflated, and wrong-root blocks — which the
//! `validation_props` property suite and the cross-mode tamper matrix
//! enforce.
//!
//! [`BadTransaction`]: ValidationError::BadTransaction

use sereth_telemetry::{Phase, Telemetry};
use sereth_types::block::{Block, BlockHeader};
use sereth_types::receipt::Receipt;

use crate::executor::{apply_transaction, BlockEnv, TxApplyError};
use crate::parallel::{self, ExecStats, WaveSink};
use crate::state::StateDb;
use sereth_types::transaction::Transaction;

/// Why a block was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// `parent_hash` does not match the parent header.
    WrongParent,
    /// Block number is not parent number + 1.
    WrongNumber,
    /// Timestamp is not strictly after the parent's.
    NonMonotonicTimestamp,
    /// The header's transaction root does not commit to the body.
    TxRootMismatch,
    /// A transaction failed to apply during replay.
    BadTransaction {
        /// Index of the offending transaction.
        index: usize,
        /// The underlying error.
        error: TxApplyError,
    },
    /// Declared gas used differs from replay.
    GasUsedMismatch {
        /// Header value.
        declared: u64,
        /// Replay value.
        replayed: u64,
    },
    /// The receipts root does not match replay.
    ReceiptsRootMismatch,
    /// The state root does not match replay.
    StateRootMismatch,
    /// The block exceeds its own gas limit.
    GasLimitExceeded,
}

impl core::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::WrongParent => write!(f, "parent hash mismatch"),
            Self::WrongNumber => write!(f, "block number not sequential"),
            Self::NonMonotonicTimestamp => write!(f, "timestamp not after parent"),
            Self::TxRootMismatch => write!(f, "transaction root mismatch"),
            Self::BadTransaction { index, error } => write!(f, "transaction {index} invalid: {error}"),
            Self::GasUsedMismatch { declared, replayed } => {
                write!(f, "gas used mismatch: declared {declared}, replayed {replayed}")
            }
            Self::ReceiptsRootMismatch => write!(f, "receipts root mismatch"),
            Self::StateRootMismatch => write!(f, "state root mismatch"),
            Self::GasLimitExceeded => write!(f, "block gas limit exceeded"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// How replay validation executes a block's transactions. Mirrors
/// [`crate::parallel::ExecMode`] on the read (replay) side of the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationMode {
    /// The classic one-transaction-at-a-time replay (the baseline and the
    /// default).
    #[default]
    Sequential,
    /// Conflict-aware speculative replay on the wave executor. Verdicts
    /// are identical to [`ValidationMode::Sequential`] for every block,
    /// honest or tampered.
    Parallel {
        /// Worker threads per wave (clamped to at least 1).
        threads: usize,
    },
}

impl ValidationMode {
    /// Picks [`ValidationMode::Parallel`] with `threads` workers on
    /// multi-core hosts and [`ValidationMode::Sequential`] when the
    /// machine exposes a single CPU, mirroring
    /// [`ExecMode::auto`](crate::parallel::ExecMode::auto).
    pub fn auto(threads: usize) -> Self {
        Self::auto_for(threads, parallel::detected_parallelism())
    }

    /// [`ValidationMode::auto`] with an explicit parallelism reading — the
    /// deterministic core the single-CPU regression test pins. Delegates
    /// to [`ExecMode::auto_for`](crate::parallel::ExecMode::auto_for) so
    /// the build and replay sides share one auto-selection policy.
    pub fn auto_for(threads: usize, available_parallelism: usize) -> Self {
        match crate::parallel::ExecMode::auto_for(threads, available_parallelism) {
            crate::parallel::ExecMode::Sequential => Self::Sequential,
            crate::parallel::ExecMode::Parallel { threads } => Self::Parallel { threads },
        }
    }
}

/// A successfully replayed block: its artifacts plus the executor
/// counters describing how the replay ran (all zeros except
/// `sequential_txs` in sequential mode).
#[derive(Debug, Clone)]
pub struct Validated {
    /// Receipts, in block order.
    pub receipts: Vec<Receipt>,
    /// State after the block.
    pub post_state: StateDb,
    /// How the replay executed (waves, speculations, fallbacks).
    pub stats: ExecStats,
}

/// The replay-validation [`WaveSink`]: every transaction is admitted (a
/// published block has no skips — its body *is* the inclusion decision),
/// and the first apply error aborts the run, capturing the failing
/// absolute index exactly as the sequential replay loop would.
#[derive(Default)]
struct ReplaySink {
    receipts: Vec<Receipt>,
    gas_used: u64,
    failure: Option<(usize, TxApplyError)>,
}

impl WaveSink for ReplaySink {
    fn admit(&mut self, _tx: &Transaction) -> bool {
        true
    }

    fn next_index(&self) -> u32 {
        self.receipts.len() as u32
    }

    fn include(&mut self, _tx: &Transaction, receipt: Receipt) {
        self.gas_used += receipt.gas_used;
        self.receipts.push(receipt);
    }

    fn reject(&mut self, index: usize, error: TxApplyError) -> bool {
        self.failure = Some((index, error));
        false
    }
}

/// Replays `block` on top of `parent_state` and checks every commitment.
///
/// Returns the receipts and post-state on success. Sequential replay; use
/// [`validate_block_with_mode`] to validate on the wave executor.
///
/// # Errors
///
/// See [`ValidationError`]; any error means the block must be rejected and
/// not propagated.
pub fn validate_block(
    parent: &BlockHeader,
    parent_state: &StateDb,
    block: &Block,
) -> Result<(Vec<Receipt>, StateDb), ValidationError> {
    validate_block_with_mode(parent, parent_state, block, &ValidationMode::Sequential)
        .map(|validated| (validated.receipts, validated.post_state))
}

/// [`validate_block`] with an explicit replay mode.
///
/// The two modes return byte-identical verdicts: the same [`Validated`]
/// artifacts on honest blocks and the same [`ValidationError`] variant —
/// including the [`ValidationError::BadTransaction`] index — on tampered
/// ones. Header and commitment checks are shared code; only the replay
/// loop differs, and the parallel loop is the builder's own wave executor
/// replaying the block's fixed order.
///
/// # Errors
///
/// See [`ValidationError`].
pub fn validate_block_with_mode(
    parent: &BlockHeader,
    parent_state: &StateDb,
    block: &Block,
    mode: &ValidationMode,
) -> Result<Validated, ValidationError> {
    let mut scratch = ExecStats::default();
    validate_block_accounted(parent, parent_state, block, mode, &mut scratch)
}

/// [`validate_block_with_mode`] accumulating the replay counters into
/// `stats_out` **whether or not the block is accepted**. A rejected block
/// still costs replay work — a wrong-root block replays in full before
/// the commitment check fires — and per-peer cost accounting
/// ([`crate::store::ChainStore::validation_stats`]) must see that spend,
/// or an adversary feeding invalid blocks would look free.
///
/// # Errors
///
/// See [`ValidationError`].
pub fn validate_block_accounted(
    parent: &BlockHeader,
    parent_state: &StateDb,
    block: &Block,
    mode: &ValidationMode,
    stats_out: &mut ExecStats,
) -> Result<Validated, ValidationError> {
    validate_block_traced(parent, parent_state, block, mode, stats_out, Telemetry::off())
}

/// The checks that place `header` under `parent`: parent hash, height,
/// and timestamp monotonicity. Replay validation runs them first; the
/// import of a block this node sealed itself runs only these (its body,
/// receipts and post-state come from the builder).
///
/// # Errors
///
/// [`ValidationError::WrongParent`], [`ValidationError::WrongNumber`] or
/// [`ValidationError::NonMonotonicTimestamp`].
pub(crate) fn check_header(parent: &BlockHeader, header: &BlockHeader) -> Result<(), ValidationError> {
    if header.parent_hash != parent.hash() {
        return Err(ValidationError::WrongParent);
    }
    if header.number != parent.number + 1 {
        return Err(ValidationError::WrongNumber);
    }
    if header.timestamp_ms <= parent.timestamp_ms {
        return Err(ValidationError::NonMonotonicTimestamp);
    }
    Ok(())
}

/// [`validate_block_accounted`] recording into `telemetry`: a parallel
/// replay's speculate/merge stages and the state root land in their phase
/// histograms (the overall validate span is the *caller's* to record —
/// the store times its whole import-side validation as one `validate`
/// phase sample).
/// Pass [`Telemetry::off()`] to replay untimed.
///
/// # Errors
///
/// See [`ValidationError`].
pub fn validate_block_traced(
    parent: &BlockHeader,
    parent_state: &StateDb,
    block: &Block,
    mode: &ValidationMode,
    stats_out: &mut ExecStats,
    telemetry: &Telemetry,
) -> Result<Validated, ValidationError> {
    check_header(parent, &block.header)?;
    if Block::compute_tx_root(&block.transactions) != block.header.tx_root {
        return Err(ValidationError::TxRootMismatch);
    }

    let mut state = parent_state.clone();
    state.clear_journal();
    let env = BlockEnv {
        number: block.header.number,
        timestamp_ms: block.header.timestamp_ms,
        gas_limit: block.header.gas_limit,
        miner: block.header.miner,
    };

    let mut stats = ExecStats::default();
    let replayed = match mode {
        ValidationMode::Sequential => {
            let mut receipts = Vec::with_capacity(block.transactions.len());
            let mut gas_used = 0u64;
            let mut failure = None;
            for (index, tx) in block.transactions.iter().enumerate() {
                stats.sequential_txs += 1;
                match apply_transaction(&mut state, &env, tx, index as u32) {
                    Ok(receipt) => {
                        gas_used += receipt.gas_used;
                        receipts.push(receipt);
                    }
                    Err(error) => {
                        failure = Some(ValidationError::BadTransaction { index, error });
                        break;
                    }
                }
            }
            match failure {
                Some(error) => Err(error),
                None => Ok((receipts, gas_used)),
            }
        }
        ValidationMode::Parallel { threads } => {
            let mut sink = ReplaySink::default();
            stats =
                parallel::run_waves(&mut state, &env, &block.transactions, *threads, &mut sink, telemetry);
            match sink.failure {
                Some((index, error)) => Err(ValidationError::BadTransaction { index, error }),
                None => Ok((sink.receipts, sink.gas_used)),
            }
        }
    };
    // The replay work is spent either way; account for it before the
    // verdict can bail out.
    stats_out.absorb(&stats);
    let (receipts, gas_used) = replayed?;

    if gas_used > block.header.gas_limit {
        return Err(ValidationError::GasLimitExceeded);
    }
    if gas_used != block.header.gas_used {
        return Err(ValidationError::GasUsedMismatch { declared: block.header.gas_used, replayed: gas_used });
    }
    if Block::compute_receipts_root(&receipts) != block.header.receipts_root {
        return Err(ValidationError::ReceiptsRootMismatch);
    }
    state.clear_journal();
    if telemetry.time(Phase::StateRoot, || state.state_root()) != block.header.state_root {
        return Err(ValidationError::StateRootMismatch);
    }
    Ok(Validated { receipts, post_state: state, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_block, BlockLimits};
    use crate::genesis::GenesisBuilder;
    use bytes::Bytes;
    use sereth_crypto::address::Address;
    use sereth_crypto::sig::SecretKey;
    use sereth_types::transaction::{Transaction, TxPayload};
    use sereth_types::u256::U256;

    fn setup() -> (BlockHeader, StateDb, SecretKey) {
        let key = SecretKey::from_label(1);
        let genesis = GenesisBuilder::new().fund(key.address(), U256::from(10_000_000u64)).build();
        (genesis.block.header, genesis.state, key)
    }

    fn transfer(key: &SecretKey, nonce: u64) -> Transaction {
        Transaction::sign(
            TxPayload {
                nonce,
                gas_price: 1,
                gas_limit: 21_000,
                to: Some(Address::from_low_u64(7)),
                value: U256::from(1u64),
                input: Bytes::new(),
            },
            key,
        )
    }

    fn valid_block(parent: &BlockHeader, state: &StateDb, key: &SecretKey) -> Block {
        build_block(
            parent,
            state,
            vec![transfer(key, 0), transfer(key, 1)],
            Address::from_low_u64(9),
            15_000,
            &BlockLimits::default(),
        )
        .block
    }

    #[test]
    fn honestly_built_blocks_validate() {
        let (parent, state, key) = setup();
        let block = valid_block(&parent, &state, &key);
        let (receipts, post) = validate_block(&parent, &state, &block).unwrap();
        assert_eq!(receipts.len(), 2);
        assert_eq!(post.state_root(), block.header.state_root);
    }

    #[test]
    fn rejects_wrong_parent() {
        let (parent, state, key) = setup();
        let mut block = valid_block(&parent, &state, &key);
        block.header.parent_hash = sereth_crypto::hash::H256::keccak(b"fake");
        assert_eq!(validate_block(&parent, &state, &block).unwrap_err(), ValidationError::WrongParent);
    }

    #[test]
    fn rejects_wrong_number() {
        let (parent, state, key) = setup();
        let mut block = valid_block(&parent, &state, &key);
        block.header.number = 5;
        assert_eq!(validate_block(&parent, &state, &block).unwrap_err(), ValidationError::WrongNumber);
    }

    #[test]
    fn rejects_stale_timestamp() {
        let (parent, state, key) = setup();
        let mut block = valid_block(&parent, &state, &key);
        block.header.timestamp_ms = 0;
        assert_eq!(
            validate_block(&parent, &state, &block).unwrap_err(),
            ValidationError::NonMonotonicTimestamp
        );
    }

    #[test]
    fn rejects_reordered_body() {
        let (parent, state, key) = setup();
        let mut block = valid_block(&parent, &state, &key);
        block.transactions.swap(0, 1);
        assert_eq!(validate_block(&parent, &state, &block).unwrap_err(), ValidationError::TxRootMismatch);
    }

    #[test]
    fn rejects_raa_tampered_transaction() {
        // The paper's experiment: a malicious client rewrites the calldata
        // of a signed transaction. The block carries a consistent tx root
        // (the miner sealed the mutated tx) but replay detects the broken
        // signature.
        let (parent, state, key) = setup();
        let tampered = transfer(&key, 0).with_tampered_input(Bytes::from_static(b"augmented"));
        let mut block = valid_block(&parent, &state, &key);
        block.transactions[0] = tampered;
        block.header.tx_root = Block::compute_tx_root(&block.transactions);
        let err = validate_block(&parent, &state, &block).unwrap_err();
        assert_eq!(err, ValidationError::BadTransaction { index: 0, error: TxApplyError::BadSignature });
    }

    #[test]
    fn rejects_false_gas_claim() {
        let (parent, state, key) = setup();
        let mut block = valid_block(&parent, &state, &key);
        block.header.gas_used += 1;
        assert!(matches!(
            validate_block(&parent, &state, &block).unwrap_err(),
            ValidationError::GasUsedMismatch { .. }
        ));
    }

    #[test]
    fn rejects_false_state_root() {
        let (parent, state, key) = setup();
        let mut block = valid_block(&parent, &state, &key);
        block.header.state_root = sereth_crypto::hash::H256::keccak(b"wrong");
        assert_eq!(validate_block(&parent, &state, &block).unwrap_err(), ValidationError::StateRootMismatch);
    }

    #[test]
    fn rejects_false_receipts_root() {
        let (parent, state, key) = setup();
        let mut block = valid_block(&parent, &state, &key);
        block.header.receipts_root = sereth_crypto::hash::H256::keccak(b"wrong");
        assert_eq!(
            validate_block(&parent, &state, &block).unwrap_err(),
            ValidationError::ReceiptsRootMismatch
        );
    }

    #[test]
    fn parallel_validation_matches_sequential_on_honest_blocks() {
        let (parent, state, key) = setup();
        let block = valid_block(&parent, &state, &key);
        let (receipts, post) = validate_block(&parent, &state, &block).unwrap();
        let validated =
            validate_block_with_mode(&parent, &state, &block, &ValidationMode::Parallel { threads: 4 })
                .unwrap();
        assert_eq!(validated.receipts, receipts);
        assert_eq!(validated.post_state.state_root(), post.state_root());
        assert!(validated.stats.waves >= 1, "parallel replay waves: {:?}", validated.stats);
    }

    #[test]
    fn parallel_validation_rejects_tampering_with_the_sequential_verdict() {
        let (parent, state, key) = setup();
        let tampered = transfer(&key, 0).with_tampered_input(Bytes::from_static(b"augmented"));
        let mut block = valid_block(&parent, &state, &key);
        block.transactions[0] = tampered;
        block.header.tx_root = Block::compute_tx_root(&block.transactions);
        let sequential = validate_block(&parent, &state, &block).unwrap_err();
        let parallel =
            validate_block_with_mode(&parent, &state, &block, &ValidationMode::Parallel { threads: 4 })
                .unwrap_err();
        assert_eq!(sequential, parallel, "cross-mode verdicts must be identical");
        assert_eq!(parallel, ValidationError::BadTransaction { index: 0, error: TxApplyError::BadSignature });
    }

    #[test]
    fn validation_auto_mode_on_single_cpu_replays_sequentially() {
        assert_eq!(ValidationMode::auto_for(4, 1), ValidationMode::Sequential);
        assert_eq!(ValidationMode::auto_for(1, 16), ValidationMode::Sequential);
        assert_eq!(ValidationMode::auto_for(4, 8), ValidationMode::Parallel { threads: 4 });

        let (parent, state, key) = setup();
        let block = valid_block(&parent, &state, &key);
        let validated =
            validate_block_with_mode(&parent, &state, &block, &ValidationMode::auto_for(4, 1)).unwrap();
        assert_eq!(validated.stats.waves, 0, "single-CPU auto validation must not speculate");
        assert_eq!(validated.stats.speculated, 0);
        assert_eq!(validated.stats.sequential_txs, block.transactions.len() as u64);
    }

    #[test]
    fn validation_and_build_are_deterministic() {
        let (parent, state, key) = setup();
        let a = valid_block(&parent, &state, &key);
        let b = valid_block(&parent, &state, &key);
        assert_eq!(a.hash(), b.hash(), "same inputs, same block");
    }
}
