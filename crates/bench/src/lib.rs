//! Shared fixtures for the sereth benchmarks and experiment binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trend;

use sereth_core::fpv::{Flag, Fpv};
use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_core::process::PendingTx;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_node::contract::{default_contract_address, set_selector};

/// Builds a pool snapshot containing one honest chain of `chain_len` sets
/// plus `noise` non-HMS transactions — the input shape for the HMS
/// overhead benchmarks (paper §III-C: "only a small percentage of the
/// TxPool requires processing").
pub fn pool_with_chain(chain_len: usize, noise: usize) -> Vec<PendingTx> {
    let mut pool = Vec::with_capacity(chain_len + noise);
    let mut prev = genesis_mark();
    for i in 0..chain_len {
        let flag = if i == 0 { Flag::Head } else { Flag::Success };
        let value = H256::from_low_u64(1_000 + i as u64);
        let fpv = Fpv::new(flag, prev, value);
        prev = compute_mark(&prev, &value);
        pool.push(PendingTx {
            hash: H256::keccak(&(i as u64).to_be_bytes()),
            sender: Address::from_low_u64(i as u64),
            to: Some(default_contract_address()),
            input: fpv.to_calldata(set_selector()),
            arrival_seq: i as u64,
        });
    }
    for j in 0..noise {
        pool.push(PendingTx {
            hash: H256::keccak(&[0xee, j as u8, (j >> 8) as u8]),
            sender: Address::from_low_u64(10_000 + j as u64),
            to: Some(Address::from_low_u64(0x0dd)),
            input: bytes::Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef, 0x01]),
            arrival_seq: (chain_len + j) as u64,
        });
    }
    pool
}

/// Builds a live [`TxPool`](sereth_chain::txpool::TxPool) holding
/// `markets` independent Sereth markets, each with a signed chain of
/// `sets_per_market` `set` transactions, plus `noise` foreign transfers —
/// the input shape for the RAA service scaling benchmarks. Returns the
/// pool and the market contract addresses.
///
/// Market `m` lives at address `0x5e7e_0000 + m`, owned by the key with
/// label `500 + m`; the committed AMV every market starts from is
/// `(genesis_mark(), 50)`.
pub fn market_txpool(
    markets: usize,
    sets_per_market: usize,
    noise: usize,
) -> (sereth_chain::txpool::TxPool, Vec<Address>) {
    use sereth_chain::txpool::{PoolConfig, TxPool};
    use sereth_crypto::sig::SecretKey;
    use sereth_types::transaction::TxPayload;
    use sereth_types::u256::U256;

    let total = markets * sets_per_market + noise;
    let pool = TxPool::with_config(PoolConfig {
        capacity: total + 1,
        // Keep the whole fill visible to event subscribers so benchmark
        // setup replays incrementally instead of tripping a resync.
        event_capacity: 2 * total + 16,
        ..PoolConfig::default()
    });
    pool.subscribe();
    let mut now = 0;
    let contracts: Vec<Address> =
        (0..markets).map(|m| Address::from_low_u64(0x5e7e_0000 + m as u64)).collect();
    for (m, contract) in contracts.iter().enumerate() {
        let owner = SecretKey::from_label(500 + m as u64);
        let mut prev = genesis_mark();
        for i in 0..sets_per_market {
            let flag = if i == 0 { Flag::Head } else { Flag::Success };
            let value = H256::from_low_u64(1_000 + i as u64);
            let fpv = Fpv::new(flag, prev, value);
            prev = compute_mark(&prev, &value);
            let tx = sereth_types::transaction::Transaction::sign(
                TxPayload {
                    nonce: i as u64,
                    gas_price: 1,
                    gas_limit: 100_000,
                    to: Some(*contract),
                    value: U256::ZERO,
                    input: fpv.to_calldata(set_selector()),
                },
                &owner,
            );
            pool.insert(tx, now).expect("pool sized to fit");
            now += 1;
        }
    }
    for j in 0..noise {
        let sender = SecretKey::from_label(100_000 + j as u64);
        let tx = sereth_types::transaction::Transaction::sign(
            TxPayload {
                nonce: 0,
                gas_price: 2,
                gas_limit: 21_000,
                to: Some(Address::from_low_u64(0xee)),
                value: U256::ZERO,
                input: bytes::Bytes::new(),
            },
            &sender,
        );
        pool.insert(tx, now).expect("pool sized to fit");
        now += 1;
    }
    (pool, contracts)
}

/// The recompute baseline's data source for RAA benchmarks: a live
/// (internally sharded) pool, walked borrowed per query (so the baseline
/// already benefits from the `for_each_pending` fast path; the
/// incremental service must beat *that*).
pub struct PoolSource {
    /// The shared pool.
    pub pool: std::sync::Arc<sereth_chain::txpool::TxPool>,
    /// The committed `(mark, value)` reported for every contract.
    pub committed: (H256, H256),
}

impl sereth_core::provider::HmsDataSource for PoolSource {
    fn pending(&self) -> Vec<PendingTx> {
        sereth_node::miner::pending_view(&self.pool)
    }

    fn for_each_pending(&self, visit: &mut dyn FnMut(&PendingTx)) {
        self.pool.with_entries_by_arrival(|entries| {
            for entry in entries {
                visit(&sereth_node::miner::pending_tx(entry));
            }
        });
    }

    fn committed(&self, _contract: &Address) -> (H256, H256) {
        self.committed
    }
}

/// Shared fixture for the EXEC-PAR / VAL-PAR scale benches: a funded
/// genesis with per-sender counter contracts, optionally padded with
/// [`exec_fixture::IDLE_ACCOUNTS`] idle accounts, and candidate lists
/// whose conflict ratio is a knob. Both benches must measure the *same*
/// workload shape (one builds, one replays), so the shape exists once.
pub mod exec_fixture {
    use bytes::Bytes;
    use sereth_chain::genesis::GenesisBuilder;
    use sereth_chain::state::StateDb;
    use sereth_crypto::address::Address;
    use sereth_crypto::sig::SecretKey;
    use sereth_types::block::BlockHeader;
    use sereth_types::transaction::{Transaction, TxPayload};
    use sereth_types::u256::U256;
    use sereth_vm::asm::assemble;
    use sereth_vm::exec::ContractCode;

    /// Reads slot 0, does a little keccak work, increments the slot —
    /// enough VM time per transaction that scheduling overhead does not
    /// dominate.
    pub fn counter_code() -> Bytes {
        Bytes::from(
            assemble(
                "PUSH1 0x00\nSLOAD\nPUSH1 0x20\nPUSH1 0x00\nSHA3\nPOP\nPUSH1 0x20\nPUSH1 0x00\nSHA3\nPOP\nPUSH1 0x01\nADD\nPUSH1 0x00\nSSTORE\nSTOP",
            )
            .unwrap(),
        )
    }

    /// Deterministic contract address `base + i` (distinct `base` per
    /// bench keeps the two benches' states disjoint).
    pub fn contract_address(base: u64, i: u64) -> Address {
        Address::from_low_u64(base + i)
    }

    /// First address of the idle padding accounts, clear of every
    /// contract base.
    const IDLE_BASE: u64 = 1 << 40;

    /// Idle accounts in both benches' padded row: nodebench's
    /// `transfer_wide` state size, so the wave executor is also measured
    /// over a large account map. The row is reported, never gated.
    pub const IDLE_ACCOUNTS: u64 = 100_000;

    /// The coinbase both benches seal with. It exists at genesis, as a
    /// node's coinbase does after its first block: creating it would
    /// insert an account and rebuild the whole state tree at the seal.
    pub fn miner() -> Address {
        Address::from_low_u64(0xfee)
    }

    /// Parent state: `size` funded senders (key labels from
    /// `label_base`), `size + 1` counter contracts at `contract_base`
    /// (index 0 is the shared hot one), the [`miner`], and `idle` funded
    /// accounts no transaction touches — state size without extra work,
    /// the shape of nodebench's `transfer_wide` at `idle = 100_000`.
    pub fn fixture(
        label_base: u64,
        contract_base: u64,
        size: u64,
        idle: u64,
    ) -> (BlockHeader, StateDb, Vec<SecretKey>) {
        let keys: Vec<SecretKey> = (0..size).map(|i| SecretKey::from_label(label_base + i)).collect();
        let mut builder = GenesisBuilder::new();
        for key in &keys {
            builder = builder.fund(key.address(), U256::from(100_000_000u64));
        }
        for i in 0..idle {
            builder = builder.fund(Address::from_low_u64(IDLE_BASE + i), U256::from(1u64));
        }
        builder = builder.fund(miner(), U256::from(1u64));
        let code = counter_code();
        for i in 0..=size {
            builder =
                builder.contract(contract_address(contract_base, i), ContractCode::Bytecode(code.clone()));
        }
        // Built in one piece, the genesis state carries the root cache of
        // its own map, as a node's head state does: a block's seal then
        // rehashes only what the block changed, not the whole state.
        let genesis = builder.build();
        (genesis.block.header, genesis.state, keys)
    }

    /// One call per sender; `conflict_pct`% of them (spread evenly by a
    /// stride) target the shared contract 0, the rest their own.
    pub fn candidates(keys: &[SecretKey], contract_base: u64, conflict_pct: u64) -> Vec<Transaction> {
        keys.iter()
            .enumerate()
            .map(|(i, key)| {
                let conflicting = (i as u64 * 997) % 100 < conflict_pct;
                let target = if conflicting {
                    contract_address(contract_base, 0)
                } else {
                    contract_address(contract_base, 1 + i as u64)
                };
                Transaction::sign(
                    TxPayload {
                        nonce: 0,
                        gas_price: 1,
                        gas_limit: 120_000,
                        to: Some(target),
                        value: U256::ZERO,
                        input: Bytes::new(),
                    },
                    key,
                )
            })
            .collect()
    }
}

/// One measured point of a scale benchmark: workload `size`, baseline and
/// fast-path mean latencies in microseconds, and their ratio.
#[derive(Debug, Clone, Copy)]
pub struct BenchPoint {
    /// Workload size (accounts, pool entries, transactions, …).
    pub size: u64,
    /// Baseline latency, µs.
    pub base_us: f64,
    /// Fast-path latency, µs.
    pub fast_us: f64,
    /// `base_us / fast_us`.
    pub speedup: f64,
}

impl BenchPoint {
    /// Builds a point from two mean durations.
    pub fn from_durations(size: u64, base: std::time::Duration, fast: std::time::Duration) -> Self {
        let base_us = base.as_nanos() as f64 / 1e3;
        let fast_us = fast.as_nanos() as f64 / 1e3;
        Self { size, base_us, fast_us, speedup: base.as_nanos() as f64 / fast.as_nanos().max(1) as f64 }
    }

    /// The EXEC-PAR / VAL-PAR padded row as artifact config entries: it
    /// stays out of `points`, so neither `bench_trend` nor a speedup gate
    /// reads it.
    pub fn padded_config(&self) -> [(&'static str, String); 5] {
        [
            ("idle_accounts", exec_fixture::IDLE_ACCOUNTS.to_string()),
            ("idle_txs", self.size.to_string()),
            ("idle_base_us", format!("{:.3}", self.base_us)),
            ("idle_fast_us", format!("{:.3}", self.fast_us)),
            ("idle_speedup", format!("{:.3}", self.speedup)),
        ]
    }
}

fn json_escape(raw: &str) -> String {
    raw.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Writes a machine-readable benchmark artifact `BENCH_<key>.json` (schema:
/// `{bench, config, points:[{size, base_us, fast_us, speedup}]}`) into the
/// current directory, or `$BENCH_ARTIFACT_DIR` when set. CI uploads these
/// so the performance trajectory is recorded per commit. The build is
/// offline (no serde), so the JSON is assembled by hand from flat types.
///
/// # Errors
///
/// Propagates the underlying file-system error.
pub fn write_bench_artifact(
    key: &str,
    bench: &str,
    config: &[(&str, String)],
    points: &[BenchPoint],
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var("BENCH_ARTIFACT_DIR").unwrap_or_else(|_| ".".into());
    write_bench_artifact_in(std::path::Path::new(&dir), key, bench, config, points)
}

/// [`write_bench_artifact`] with an explicit directory (the env-free core;
/// tests use this directly so no process-global state is mutated).
pub(crate) fn write_bench_artifact_in(
    dir: &std::path::Path,
    key: &str,
    bench: &str,
    config: &[(&str, String)],
    points: &[BenchPoint],
) -> std::io::Result<std::path::PathBuf> {
    use std::fmt::Write as _;
    let mut body = String::new();
    let _ = write!(body, "{{\n  \"bench\": \"{}\",\n  \"config\": {{", json_escape(bench));
    for (i, (name, value)) in config.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(body, "{sep}\n    \"{}\": \"{}\"", json_escape(name), json_escape(value));
    }
    let _ = write!(body, "\n  }},\n  \"points\": [");
    for (i, point) in points.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            body,
            "{sep}\n    {{\"size\": {}, \"base_us\": {:.3}, \"fast_us\": {:.3}, \"speedup\": {:.3}}}",
            point.size, point.base_us, point.fast_us, point.speedup
        );
    }
    body.push_str("\n  ]\n}\n");

    let path = dir.join(format!("BENCH_{key}.json"));
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Parses `VAR` from the environment as a number, with a default — lets
/// the experiment binaries scale without recompiling.
pub fn env_or<T: std::str::FromStr>(var: &str, default: T) -> T {
    std::env::var(var).ok().and_then(|value| value.parse().ok()).unwrap_or(default)
}

/// Parses a comma-separated list of u64 from the environment.
pub fn env_list_or(var: &str, default: &[u64]) -> Vec<u64> {
    std::env::var(var)
        .ok()
        .map(|value| value.split(',').filter_map(|part| part.trim().parse().ok()).collect())
        .filter(|list: &Vec<u64>| !list.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sereth_core::process::process;

    #[test]
    fn pool_fixture_yields_expected_chain() {
        let pool = pool_with_chain(10, 20);
        assert_eq!(pool.len(), 30);
        let nodes = process(&pool, &default_contract_address(), set_selector());
        assert_eq!(nodes.len(), 10, "noise filtered out");
    }

    #[test]
    fn env_helpers_fall_back() {
        assert_eq!(env_or::<u64>("SERETH_BENCH_NO_SUCH_VAR", 7u64), 7);
        assert_eq!(env_list_or("SERETH_BENCH_NO_SUCH_VAR", &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn bench_artifact_round_trips_through_disk() {
        // Uses the env-free core directly: mutating BENCH_ARTIFACT_DIR via
        // set_var would race sibling tests reading the environment.
        let dir = std::env::temp_dir().join(format!("sereth-bench-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let point = BenchPoint::from_durations(
            512,
            std::time::Duration::from_micros(100),
            std::time::Duration::from_micros(25),
        );
        let path = write_bench_artifact_in(
            &dir,
            "test",
            "exec_scale",
            &[("threads", "4".into()), ("note", "with \"quotes\"".into())],
            &[point],
        )
        .unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(path.ends_with("BENCH_test.json"));
        assert!(written.contains("\"bench\": \"exec_scale\""));
        assert!(written.contains("\"size\": 512"));
        assert!(written.contains("\"speedup\": 4.000"));
        assert!(written.contains("with \\\"quotes\\\""));
        std::fs::remove_file(&path).unwrap();
        assert!((point.speedup - 4.0).abs() < 1e-9);
    }
}
