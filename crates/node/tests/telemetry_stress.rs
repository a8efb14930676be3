//! Threaded submit-vs-mine stress for the telemetry layer.
//!
//! Submitter threads hammer `NodeHandle::receive_tx` while a miner
//! thread seals blocks and a reader thread takes telemetry snapshots
//! the whole time. The reader proves snapshots are never torn in a way
//! that violates the layer's invariants: counters and histogram counts
//! are monotone across successive snapshots, and every histogram's
//! count equals the sum of its buckets (the count is *derived* from the
//! buckets, so a torn read can at worst lag — never invent samples).
//! A second test runs the same race with telemetry disabled and pins
//! that nothing is recorded.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use bytes::Bytes;
use sereth_chain::builder::BlockLimits;
use sereth_chain::genesis::Genesis;
use sereth_chain::txpool::PoolConfig;
use sereth_chain::GenesisBuilder;
use sereth_crypto::address::Address;
use sereth_crypto::sig::SecretKey;
use sereth_node::contract::default_contract_address;
use sereth_node::miner::MinerPolicy;
use sereth_node::node::{BlockSchedule, NodeConfig, NodeHandle};
use sereth_telemetry::{TelemetryConfig, TelemetrySnapshot};
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;

const SUBMITTERS: usize = 3;
const SENDERS_PER_SUBMITTER: usize = 4;
const NONCES_PER_SENDER: u64 = 10;

fn sender_key(submitter: usize, sender: usize) -> SecretKey {
    SecretKey::from_label(9_000 + (submitter * SENDERS_PER_SUBMITTER + sender) as u64)
}

fn transfer(key: &SecretKey, nonce: u64, price: u64) -> Transaction {
    Transaction::sign(
        TxPayload {
            nonce,
            gas_price: price,
            gas_limit: 21_000,
            to: Some(Address::from_low_u64(0xfeed)),
            value: U256::from(1u64),
            input: Bytes::new(),
        },
        key,
    )
}

fn genesis() -> Genesis {
    let mut builder = GenesisBuilder::new();
    for submitter in 0..SUBMITTERS {
        for sender in 0..SENDERS_PER_SUBMITTER {
            builder = builder.fund(sender_key(submitter, sender).address(), U256::from(10_000_000u64));
        }
    }
    builder.build()
}

fn node(telemetry: TelemetryConfig) -> NodeHandle {
    NodeHandle::new(
        genesis(),
        NodeConfig::miner(default_contract_address(), MinerPolicy::Standard)
            .schedule(BlockSchedule::Fixed(1_000))
            .coinbase(Address::from_low_u64(0xc01))
            .candidate_budget(Some(32))
            .limits(BlockLimits { gas_limit: 8_000_000, max_txs: Some(32) })
            .pool(PoolConfig { shards: 8, ..PoolConfig::default() })
            .telemetry(telemetry)
            .build(),
    )
}

/// Drives submitters + miner to completion, snapshotting throughout;
/// returns the mid-flight snapshots followed by one quiescent snapshot.
fn race(node: &NodeHandle) -> Vec<TelemetrySnapshot> {
    let submitting = AtomicBool::new(true);
    // Submitters and the reader start together, so the reader's first
    // snapshot always lands inside the race however fast it runs.
    let start = Barrier::new(SUBMITTERS + 1);
    let mut snapshots = Vec::new();

    std::thread::scope(|scope| {
        let node_ref = &node;
        let submitting_ref = &submitting;
        let start_ref = &start;
        let mut submitters = Vec::new();
        for submitter in 0..SUBMITTERS {
            submitters.push(scope.spawn(move || {
                start_ref.wait();
                for nonce in 0..NONCES_PER_SENDER {
                    for sender in 0..SENDERS_PER_SUBMITTER {
                        let key = sender_key(submitter, sender);
                        let price = 1 + ((submitter + sender) as u64 * 5 + nonce) % 17;
                        assert!(node_ref.receive_tx(transfer(&key, nonce, price), nonce));
                    }
                }
            }));
        }

        let miner = scope.spawn(move || {
            let mut timestamp = 1_000u64;
            let mut idle = 0;
            while idle < 3 {
                timestamp += 1_000;
                match node_ref.mine(timestamp) {
                    Some(block)
                        if block.transactions.is_empty()
                            && !submitting_ref.load(Ordering::Relaxed)
                            && node_ref.pool_len() == 0 =>
                    {
                        idle += 1
                    }
                    Some(_) => idle = 0,
                    None => idle += 1,
                }
                std::thread::yield_now();
            }
        });

        let reader = scope.spawn(move || {
            let mut taken = Vec::new();
            start_ref.wait();
            loop {
                taken.push(node_ref.telemetry_snapshot());
                if !submitting_ref.load(Ordering::Relaxed) {
                    break taken;
                }
                std::thread::yield_now();
            }
        });

        for handle in submitters {
            handle.join().expect("submitter thread");
        }
        submitting.store(false, Ordering::Relaxed);
        snapshots = reader.join().expect("reader thread");
        miner.join().expect("miner thread");
    });

    snapshots.push(node.telemetry_snapshot());
    snapshots
}

#[test]
fn concurrent_snapshots_are_monotone_and_internally_consistent() {
    let node = node(TelemetryConfig { enabled: true });
    let snapshots = race(&node);
    assert!(snapshots.len() >= 2, "the reader must have observed the race");

    for window in snapshots.windows(2) {
        let (earlier, later) = (&window[0], &window[1]);
        for (name, value) in &earlier.counters {
            assert!(later.counters[name] >= *value, "counter {name} went backwards");
        }
        for (name, hist) in &earlier.histograms {
            assert!(later.histograms[name].count() >= hist.count(), "histogram {name} lost samples");
            assert!(later.histograms[name].sum_ns >= hist.sum_ns, "histogram {name} sum shrank");
        }
    }

    // count() is derived from the buckets, so this holds even for
    // snapshots taken mid-record — the torn-free invariant.
    for snapshot in &snapshots {
        for (name, hist) in &snapshot.histograms {
            let bucket_sum: u64 = hist.bucket_counts.iter().sum();
            assert_eq!(hist.count(), bucket_sum, "histogram {name} count != bucket sum");
        }
    }

    let last = snapshots.last().unwrap();
    let total = (SUBMITTERS * SENDERS_PER_SUBMITTER) as u64 * NONCES_PER_SENDER;
    assert_eq!(last.histograms["phase.admission"].count(), total, "every insert timed once");
    assert!(last.histograms["phase.receive_tx"].count() >= total);
    assert!(last.histograms["phase.seal"].count() >= 1);
    assert!(last.counters["exec.sequential_txs"] >= total, "all transfers executed");
}

#[test]
fn disabled_telemetry_stays_empty_under_the_same_race() {
    let node = node(TelemetryConfig { enabled: false });
    let snapshots = race(&node);
    for snapshot in &snapshots {
        assert!(snapshot.counters.is_empty(), "disabled registry gained counters: {snapshot:?}");
        assert!(snapshot.gauges.is_empty());
        assert!(snapshot.histograms.is_empty());
        assert!(snapshot.blocks.is_empty());
    }
}
