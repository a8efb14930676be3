//! Substrate micro-benchmarks: keccak throughput, the interpreter on the
//! Sereth contract bytecode vs the native contract, TxPool operations,
//! and state-root computation — the building blocks whose costs bound the
//! simulation's fidelity-per-second.

use bytes::Bytes;
use std::sync::Arc;

use criterion::{
    black_box, criterion_group, criterion_main, BatchSize, Bencher, BenchmarkId, Criterion, Throughput,
};
use sereth_chain::state::StateDb;
use sereth_chain::txpool::TxPool;
use sereth_core::fpv::{Flag, Fpv};
use sereth_core::mark::genesis_mark;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::keccak::keccak256;
use sereth_crypto::sig::SecretKey;
use sereth_node::contract::{
    default_contract_address, sereth_code, sereth_genesis_slots, set_selector, ContractForm,
};
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;
use sereth_vm::exec::{CallEnv, MemStorage, Storage};
use sereth_vm::raa::{execute_call, RaaRegistry};

fn bench_keccak(c: &mut Criterion) {
    let mut group = c.benchmark_group("keccak256");
    for &size in &[32usize, 136, 1_024, 16_384] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| keccak256(black_box(data)))
        });
    }
    group.finish();
}

fn bench_contract_forms(c: &mut Criterion) {
    let mut group = c.benchmark_group("sereth_set_call");
    let contract = default_contract_address();
    let calldata = Fpv::new(Flag::Head, genesis_mark(), H256::from_low_u64(60)).to_calldata(set_selector());
    for (label, form) in [("native", ContractForm::Native), ("bytecode", ContractForm::Bytecode)] {
        let code = sereth_code(form);
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    let mut storage = MemStorage::new();
                    for (k, v) in sereth_genesis_slots(&Address::from_low_u64(1), H256::from_low_u64(50)) {
                        storage.storage_set(&contract, k, v);
                    }
                    storage
                },
                |mut storage| {
                    let env = CallEnv::test_env(Address::from_low_u64(2), contract, calldata.clone());
                    execute_call(&code, env, &mut storage, 10_000_000, &RaaRegistry::new())
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_txpool(c: &mut Criterion) {
    let keys: Vec<SecretKey> = (0..64).map(SecretKey::from_label).collect();
    let txs: Vec<Transaction> = (0..512)
        .map(|i| {
            Transaction::sign(
                TxPayload {
                    nonce: (i / 64) as u64,
                    gas_price: 1 + (i % 7) as u64,
                    gas_limit: 21_000,
                    to: Some(Address::from_low_u64(1)),
                    value: U256::ZERO,
                    input: Bytes::new(),
                },
                &keys[i % 64],
            )
        })
        .collect();

    let mut group = c.benchmark_group("txpool");
    group.bench_function("insert_512", |b| {
        b.iter_batched(
            TxPool::new,
            |pool| {
                for (i, tx) in txs.iter().enumerate() {
                    let _ = pool.insert(tx.clone(), i as u64);
                }
                pool
            },
            criterion::BatchSize::SmallInput,
        )
    });

    let pool = TxPool::new();
    for (i, tx) in txs.iter().enumerate() {
        let _ = pool.insert(tx.clone(), i as u64);
    }
    group.bench_function("ready_by_price_512", |b| b.iter(|| black_box(&pool).ready_by_price(|_| 0)));
    group.bench_function("pending_by_arrival_512", |b| b.iter(|| black_box(&pool).pending_by_arrival()));
    group.finish();
}

/// A rooted state of `accounts` funded accounts, each with one storage
/// slot.
fn rooted_state(accounts: usize) -> StateDb {
    let mut builder = sereth_chain::genesis::GenesisBuilder::new();
    for i in 0..accounts {
        let addr = Address::from_low_u64(i as u64);
        builder = builder.fund(addr, U256::from(i as u64)).contract_with_storage(
            addr,
            sereth_vm::exec::ContractCode::None,
            [(H256::from_low_u64(1), H256::from_low_u64(i as u64))],
        );
    }
    builder.build().state
}

/// Times `state_root` on a fresh state from `make` per sample. Making the
/// state and dropping it stay out of the timing (the last one is held
/// until the next is made).
fn time_root_of(b: &mut Bencher, mut make: impl FnMut() -> StateDb) {
    let mut held = None;
    b.iter_batched(
        || {
            let state = Arc::new(make());
            held = Some(Arc::clone(&state));
            state
        },
        |state| state.state_root(),
        BatchSize::PerIteration,
    );
}

/// The state root from scratch (a deep clone carries no cached tree), and
/// the incremental root of a child that changed 512 of 10^5 accounts, the
/// size of a block of 256 transfers.
fn bench_state_root(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_root");
    for &accounts in &[16usize, 128, 1_024, 100_000] {
        let state = rooted_state(accounts);
        group.bench_function(BenchmarkId::new("full", accounts), |b| time_root_of(b, || state.deep_clone()));
    }
    let parent = rooted_state(100_000);
    group.bench_function(BenchmarkId::new("changed_512_of", 100_000), |b| {
        time_root_of(b, || {
            let mut child = parent.clone();
            for i in 0..512u64 {
                child.credit(&Address::from_low_u64(i * 193 % 100_000), U256::from(1u64));
            }
            child
        })
    });
    group.finish();
}

criterion_group!(benches, bench_keccak, bench_contract_forms, bench_txpool, bench_state_root);
criterion_main!(benches);
