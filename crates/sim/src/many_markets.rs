//! The `many_markets` scenario: dozens of independent Sereth markets on
//! one node, hundreds of reader clients hammering READ-UNCOMMITTED views
//! while owners keep repricing and a miner keeps committing blocks.
//!
//! This is the workload the recompute-per-query RAA path collapses
//! under — every read re-filtered the whole pool — and the one the
//! incremental [`RaaService`](sereth_raa::RaaService) was built for:
//! reads touch only the queried market's cached series. The scenario
//! reports wall-clock read latency plus the service's hit/rebuild/resync
//! counters, and (sampled) cross-checks every view against batch
//! Algorithm 1 over a pool snapshot.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sereth_chain::builder::BlockLimits;
use sereth_chain::genesis::GenesisBuilder;
use sereth_core::hms::{hash_mark_set, HmsConfig};
use sereth_core::mark::genesis_mark;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_node::client::Owner;
use sereth_node::contract::{sereth_code, sereth_genesis_slots, set_selector, ContractForm};
use sereth_node::miner::{pending_view, MinerPolicy};
use sereth_node::node::{ClientKind, NodeConfig, NodeHandle, RaaBackend};
use sereth_raa::RaaMetrics;
use sereth_types::u256::U256;

/// Configuration of the many-markets read storm.
#[derive(Debug, Clone)]
pub struct ManyMarketsConfig {
    /// Independent Sereth market contracts (dozens).
    pub markets: usize,
    /// Reader clients issuing view queries (hundreds).
    pub readers: usize,
    /// Rounds of the workload loop.
    pub rounds: usize,
    /// Sets submitted per market per round.
    pub sets_per_round: usize,
    /// Reads issued per reader per round.
    pub reads_per_round: usize,
    /// A block is mined every `mine_every` rounds (commits pending sets).
    pub mine_every: usize,
    /// Which RAA backend the node runs.
    pub backend: RaaBackend,
    /// Every `verify_every`-th read is cross-checked against batch
    /// Algorithm 1 over a fresh pool snapshot (0 disables checking).
    pub verify_every: usize,
    /// Initial price of every market.
    pub initial_price: u64,
}

impl Default for ManyMarketsConfig {
    fn default() -> Self {
        Self {
            markets: 24,
            readers: 200,
            rounds: 6,
            sets_per_round: 4,
            reads_per_round: 2,
            mine_every: 2,
            backend: RaaBackend::default(),
            verify_every: 97,
            initial_price: 50,
        }
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct ManyMarketsReport {
    /// Scenario label (`many_markets/<backend>`).
    pub name: String,
    /// Total view reads issued.
    pub reads: u64,
    /// Mean wall-clock latency per read, in nanoseconds.
    pub mean_read_ns: f64,
    /// Reads that served an uncommitted (pending-series) view.
    pub uncommitted_views: u64,
    /// Reads cross-checked against batch Algorithm 1 (all must match —
    /// the run panics otherwise).
    pub verified_reads: u64,
    /// Blocks mined during the run.
    pub blocks: u64,
    /// Final pool size.
    pub pool_len: usize,
    /// Incremental-service counters (None on the recompute backend).
    pub raa: Option<RaaMetrics>,
}

/// Builds the scenario fixture shared by the scripted and concurrent
/// variants: one Sereth mining node with every market contract installed,
/// every owner funded, and RAA enabled for all markets. Both variants MUST
/// use this — their oracles assume the same genesis shape.
fn market_fixture(config: &ManyMarketsConfig) -> (Vec<SecretKey>, Vec<Address>, NodeHandle) {
    let owner_keys: Vec<SecretKey> =
        (0..config.markets).map(|m| SecretKey::from_label(7_000 + m as u64)).collect();
    let contracts: Vec<Address> =
        (0..config.markets).map(|m| Address::from_low_u64(0x3a17_0000 + m as u64)).collect();
    let mut genesis_builder = GenesisBuilder::new();
    for (key, contract) in owner_keys.iter().zip(&contracts) {
        genesis_builder =
            genesis_builder.fund(key.address(), U256::from(u64::MAX / 2)).contract_with_storage(
                *contract,
                sereth_code(ContractForm::Native),
                sereth_genesis_slots(&key.address(), H256::from_low_u64(config.initial_price)),
            );
    }
    let node = NodeHandle::new(
        genesis_builder.build(),
        NodeConfig::miner(contracts[0], MinerPolicy::Standard)
            .kind(ClientKind::Sereth)
            .coinbase(Address::from_low_u64(0xc0b0))
            .limits(BlockLimits { gas_limit: 64_000_000, max_txs: None })
            .raa_backend(config.backend.clone())
            .build(),
    );
    for contract in &contracts {
        node.enable_market(*contract);
    }
    (owner_keys, contracts, node)
}

/// The owners driving each market's repricing, built from the fixture.
fn market_owners(config: &ManyMarketsConfig, keys: &[SecretKey], contracts: &[Address]) -> Vec<Owner> {
    keys.iter()
        .zip(contracts)
        .map(|(key, contract)| {
            Owner::with_value(
                key.clone(),
                *contract,
                genesis_mark(),
                H256::from_low_u64(config.initial_price),
                1,
            )
        })
        .collect()
}

/// Runs the scenario; identical `(config, seed)` pairs take identical
/// decisions (wall-clock latencies vary, of course).
pub fn run_many_markets(config: &ManyMarketsConfig, seed: u64) -> ManyMarketsReport {
    assert!(config.markets > 0 && config.readers > 0, "markets and readers required");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9a9a_33aa);

    let (owner_keys, contracts, node) = market_fixture(config);
    let mut owners = market_owners(config, &owner_keys, &contracts);
    let readers: Vec<Address> =
        (0..config.readers).map(|r| Address::from_low_u64(0xbead_0000 + r as u64)).collect();

    let mut reads = 0u64;
    let mut uncommitted_views = 0u64;
    let mut verified_reads = 0u64;
    let mut blocks = 0u64;
    let mut read_time_ns = 0u128;
    let mut now = 0u64;

    for round in 0..config.rounds {
        // Owners reprice.
        for (m, owner) in owners.iter_mut().enumerate() {
            for s in 0..config.sets_per_round {
                let price = 100 + (round * config.sets_per_round + s) as u64 * 3 + m as u64;
                let tx = owner.next_set(&node, H256::from_low_u64(price));
                node.receive_tx(tx, now);
                now += 1;
            }
        }
        // Readers hammer views, spread over random markets.
        for reader in &readers {
            for _ in 0..config.reads_per_round {
                let market = rng.gen_range(0..config.markets);
                let start = Instant::now();
                let view = node.query_view_for(contracts[market], *reader);
                read_time_ns += start.elapsed().as_nanos();
                let (mark, value) = view.expect("sereth node always answers");
                reads += 1;
                let committed = node.with_inner(|inner| {
                    sereth_node::miner::committed_amv(&inner.chain.head_state_view(), &contracts[market])
                });
                if (mark, value) != committed {
                    uncommitted_views += 1;
                }
                if config.verify_every > 0 && reads.is_multiple_of(config.verify_every as u64) {
                    // Oracle: batch Algorithm 1 over a fresh snapshot.
                    let snapshot = node.with_inner(|inner| pending_view(&inner.pool));
                    let expected = hash_mark_set(
                        &snapshot,
                        &contracts[market],
                        set_selector(),
                        committed,
                        &HmsConfig::default(),
                    );
                    assert_eq!(
                        (mark, value),
                        (expected.view.mark, expected.view.value),
                        "read diverged from batch HMS on market {market}"
                    );
                    verified_reads += 1;
                }
            }
        }
        if config.mine_every > 0 && (round + 1).is_multiple_of(config.mine_every) {
            now = now.max((blocks + 1) * 15_000);
            if node.mine(now).is_some() {
                blocks += 1;
            }
        }
    }

    let backend_label = match config.backend {
        RaaBackend::Recompute => "recompute",
        RaaBackend::Service { .. } => "service",
    };
    ManyMarketsReport {
        name: format!("many_markets/{backend_label}"),
        reads,
        mean_read_ns: if reads == 0 { 0.0 } else { read_time_ns as f64 / reads as f64 },
        uncommitted_views,
        verified_reads,
        blocks,
        pool_len: node.pool_len(),
        raa: node.raa_metrics(),
    }
}

/// What the concurrent variant measured.
#[derive(Debug, Clone)]
pub struct ConcurrentMarketsReport {
    /// Total view reads issued across all reader threads.
    pub reads: u64,
    /// Reads whose `(mark, value)` components were cross-checked against
    /// the market's deterministic price chain (all of them — the run
    /// panics on a miss).
    pub verified_reads: u64,
    /// State-view integrity checks (view root vs header root).
    pub view_checks: u64,
    /// Blocks the sealer committed during the run.
    pub blocks: u64,
}

/// The concurrent read-storm variant: real OS threads instead of scripted
/// rounds. A sealer thread keeps repricing every market and committing
/// blocks while `reader_threads` threads hammer `query_view_for` and
/// capture O(1) `StateView`s.
///
/// Cross-checks under true concurrency:
/// * every captured view recomputes exactly the state root its header
///   committed to (no torn state reads);
/// * every served mark/value is a member of that market's deterministic
///   price chain (the sealer's prices are a pure function of the round, so
///   the full chain is known up front);
/// * held views from early blocks stay byte-stable to the end of the run.
pub fn run_many_markets_concurrent(
    config: &ManyMarketsConfig,
    reader_threads: usize,
    seed: u64,
) -> ConcurrentMarketsReport {
    use sereth_core::mark::compute_mark;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    assert!(config.markets > 0 && reader_threads > 0, "markets and reader threads required");

    let (owner_keys, contracts, node) = market_fixture(config);

    // The oracle: each market's full deterministic price chain. Prices are
    // a pure function of (round, s, market), so every mark/value a reader
    // can legally observe — committed or uncommitted — is known up front.
    let total_sets = config.rounds * config.sets_per_round;
    let mut valid_marks: Vec<std::collections::HashSet<H256>> = Vec::with_capacity(config.markets);
    let mut valid_values: Vec<std::collections::HashSet<H256>> = Vec::with_capacity(config.markets);
    for m in 0..config.markets {
        let mut mark = genesis_mark();
        let mut marks = std::collections::HashSet::from([mark]);
        let mut values = std::collections::HashSet::from([H256::from_low_u64(config.initial_price)]);
        for i in 0..total_sets {
            let value = H256::from_low_u64(100 + i as u64 * 3 + m as u64);
            mark = compute_mark(&mark, &value);
            marks.insert(mark);
            values.insert(value);
        }
        valid_marks.push(marks);
        valid_values.push(values);
    }

    let done = AtomicBool::new(false);
    // The sealer starts once every reader has, and each reader reads
    // before it first checks `done`: every reader overlaps the run,
    // however fast the sealer is.
    let start = std::sync::Barrier::new(reader_threads + 1);
    let reads = AtomicU64::new(0);
    let verified = AtomicU64::new(0);
    let view_checks = AtomicU64::new(0);
    let mut blocks = 0u64;

    std::thread::scope(|scope| {
        // Readers first; they read until the sealer raises `done`.
        for r in 0..reader_threads {
            let node = &node;
            let contracts = &contracts;
            let valid_marks = &valid_marks;
            let valid_values = &valid_values;
            let done = &done;
            let reads = &reads;
            let verified = &verified;
            let view_checks = &view_checks;
            let start = &start;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ (0xbead_0000 + r as u64));
                let caller = Address::from_low_u64(0xbead_0000 + r as u64);
                start.wait();
                loop {
                    let market = rng.gen_range(0..contracts.len());
                    let (mark, value) =
                        node.query_view_for(contracts[market], caller).expect("sereth node answers");
                    assert!(
                        valid_marks[market].contains(&mark),
                        "market {market} served a mark outside its chain"
                    );
                    assert!(
                        valid_values[market].contains(&value),
                        "market {market} served a value outside its chain"
                    );
                    // Counted only after both membership checks passed, so
                    // the report's verified count is earned, not assumed.
                    verified.fetch_add(1, Ordering::Relaxed);
                    reads.fetch_add(1, Ordering::Relaxed);

                    // Every few reads, audit a captured state view against
                    // the header it was taken with.
                    if reads.load(Ordering::Relaxed).is_multiple_of(16) {
                        let (height, header_root, view) = node.with_inner(|inner| {
                            (
                                inner.chain.head_number(),
                                inner.chain.head_block().header.state_root,
                                inner.chain.head_state_view(),
                            )
                        });
                        assert_eq!(view.state_root(), header_root, "torn view at height {height}");
                        view_checks.fetch_add(1, Ordering::Relaxed);
                    }
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                }
            });
        }
        start.wait();

        // The sealer: same repricing schedule as the scripted scenario,
        // committing every `mine_every` rounds, holding one view per block
        // and re-verifying them all at the end.
        let mut owners = market_owners(config, &owner_keys, &contracts);
        let mut held: Vec<(H256, sereth_chain::state::StateView)> = Vec::new();
        let mut now = 0u64;
        for round in 0..config.rounds {
            for (m, owner) in owners.iter_mut().enumerate() {
                for s in 0..config.sets_per_round {
                    let price = 100 + (round * config.sets_per_round + s) as u64 * 3 + m as u64;
                    let tx = owner.next_set(&node, H256::from_low_u64(price));
                    node.receive_tx(tx, now);
                    now += 1;
                }
            }
            if config.mine_every > 0 && (round + 1).is_multiple_of(config.mine_every) {
                now = now.max((blocks + 1) * 15_000);
                if let Some(block) = node.mine(now) {
                    blocks += 1;
                    let (_, view) = node.head_state_view();
                    held.push((block.header.state_root, view));
                }
            }
        }
        done.store(true, Ordering::Release);
        for (root, view) in &held {
            assert_eq!(view.state_root(), *root, "held per-block view drifted during the run");
        }
    });

    ConcurrentMarketsReport {
        reads: reads.load(Ordering::Relaxed),
        verified_reads: verified.load(Ordering::Relaxed),
        view_checks: view_checks.load(Ordering::Relaxed),
        blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(backend: RaaBackend) -> ManyMarketsConfig {
        ManyMarketsConfig {
            markets: 6,
            readers: 30,
            rounds: 4,
            sets_per_round: 3,
            reads_per_round: 2,
            verify_every: 17,
            backend,
            ..ManyMarketsConfig::default()
        }
    }

    #[test]
    fn service_backend_serves_verified_uncommitted_views() {
        let report = run_many_markets(&small(RaaBackend::default()), 11);
        assert_eq!(report.reads, 30 * 2 * 4);
        assert!(report.verified_reads > 0, "the oracle cross-check must actually run");
        assert!(
            report.uncommitted_views > 0,
            "with pending sets every round, some views must be uncommitted"
        );
        let raa = report.raa.expect("service backend exposes metrics");
        assert_eq!(raa.resyncs, 0, "event buffer is large enough for this workload");
        assert!(raa.hits > 0, "repeat reads of an unchanged market must hit the cache");
        assert!(raa.tracked_contracts as usize <= 6);
    }

    #[test]
    fn recompute_backend_measures_but_has_no_service() {
        let report = run_many_markets(&small(RaaBackend::Recompute), 11);
        assert_eq!(report.reads, 30 * 2 * 4);
        assert!(report.raa.is_none());
        assert!(report.verified_reads > 0);
    }

    #[test]
    fn concurrent_variant_cross_checks_views_under_live_sealing() {
        let config = ManyMarketsConfig {
            markets: 4,
            rounds: 12,
            sets_per_round: 3,
            mine_every: 2,
            ..ManyMarketsConfig::default()
        };
        let report = run_many_markets_concurrent(&config, 3, 7);
        assert_eq!(report.blocks, 6, "sealer committed every other round");
        assert!(report.reads > 0, "reader threads actually queried");
        assert_eq!(report.verified_reads, report.reads, "every read was oracle-checked");
    }

    #[test]
    fn concurrent_variant_verifies_on_the_recompute_backend_too() {
        let config = ManyMarketsConfig {
            markets: 3,
            rounds: 8,
            sets_per_round: 2,
            mine_every: 2,
            backend: RaaBackend::Recompute,
            ..ManyMarketsConfig::default()
        };
        let report = run_many_markets_concurrent(&config, 2, 13);
        assert_eq!(report.blocks, 4);
        assert!(report.reads > 0);
    }

    #[test]
    fn backends_agree_on_what_readers_observe() {
        // Same seed, same workload decisions: the per-read (mark, value)
        // stream must be identical across backends, so the scenario-level
        // aggregates must match too.
        let service = run_many_markets(&small(RaaBackend::default()), 42);
        let recompute = run_many_markets(&small(RaaBackend::Recompute), 42);
        assert_eq!(service.uncommitted_views, recompute.uncommitted_views);
        assert_eq!(service.blocks, recompute.blocks);
        assert_eq!(service.pool_len, recompute.pool_len);
    }
}
