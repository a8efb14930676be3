//! The closed-loop driver: a miner and a follower built from one genesis,
//! fed through `NodeHandle`'s public API.
//!
//! One writer thread submits a round of transactions to the miner, calls
//! `mine`, and hands the sealed block to the follower's `receive_block`.
//! Simulated time has no wall-clock block interval, so a round ends when
//! the follower's import returns. On `market_deep` a second thread issues
//! read-uncommitted reads back to back while the writer runs.
//!
//! The benchmark's own work inside a window (the sampled cross-check of a
//! read, the host-speed probe between untraced rounds) is timed and taken
//! out of every commit timing and of the window's wall time.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sereth_chain::genesis::GenesisBuilder;
use sereth_chain::parallel::ExecMode;
use sereth_core::hms::{hash_mark_set, HmsConfig};
use sereth_core::mark::genesis_mark;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_node::contract::{
    buy_ok_topic, default_contract_address, sereth_code, sereth_genesis_slots, set_selector,
};
use sereth_node::{
    committed_amv, pending_view, transfer, BlockReceipt, Buyer, ClientKind, ContractForm, MinerPolicy,
    NodeConfig, NodeHandle, Owner,
};
use sereth_telemetry::TelemetrySnapshot;
use sereth_types::transaction::Transaction;
use sereth_types::u256::U256;
use sereth_types::SimTime;

use crate::inputs::{account_keys, Op, OpStream, Rng, Spec, Workload};
use crate::probe::host_probe;
use crate::report::ratio;
use crate::trace::Tracer;

/// The host-speed probe after an untraced round runs for this share of
/// the round's wall time, and for at least [`PROBE_MIN`].
const PROBE_SHARE: f64 = 0.05;

/// The shortest host-speed probe.
pub const PROBE_MIN: Duration = Duration::from_millis(1);

/// The host-speed probe before a window's first round.
const PROBE_OPENING: Duration = Duration::from_millis(20);

/// Owner gas price (buyers and transfers draw theirs from the seed).
const OWNER_GAS_PRICE: u64 = 4;

/// A failure count plus the first failure's description.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What went wrong first.
    pub first_failure: Option<String>,
}

impl Tally {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Keys, genesis and the two open nodes.
pub struct Setup {
    owner_key: SecretKey,
    keys: Vec<SecretKey>,
    initial_price: u64,
    /// The mining node clients submit to and read from.
    pub miner: NodeHandle,
    /// The replaying node that imports every sealed block.
    pub follower: NodeHandle,
    /// The follower's durable store directory (`transfer_wide`).
    pub store_dir: Option<PathBuf>,
}

/// Builds keys, genesis and both nodes. `store_dir` makes the follower
/// durable.
pub fn setup(spec: &Spec, seed: u64, store_dir: Option<PathBuf>) -> Setup {
    let (owner_key, keys) = account_keys(seed, spec.accounts);
    let contract = default_contract_address();
    let initial_price = 1 + Rng::new(seed, 3).below(1_000_000) as u64;
    let funds = U256::from(1_000_000_000_000_000u64);
    let mut builder = GenesisBuilder::new().fund(owner_key.address(), funds);
    for key in &keys {
        builder = builder.fund(key.address(), funds);
    }
    let genesis = builder
        .contract_with_storage(
            contract,
            sereth_code(ContractForm::Bytecode),
            sereth_genesis_slots(&owner_key.address(), H256::from_low_u64(initial_price)),
        )
        .build();
    let miner_config = if spec.uses_contract() {
        NodeConfig::miner(contract, MinerPolicy::Semantic(HmsConfig::default())).build()
    } else {
        // A Sereth client ordering by fee: reads take the same
        // read-uncommitted path as on the market workloads.
        NodeConfig::miner(contract, MinerPolicy::Standard)
            .kind(ClientKind::Sereth)
            .exec_mode(ExecMode::auto(2))
            .build()
    };
    let mut follower_config = NodeConfig::geth(contract);
    if let Some(dir) = &store_dir {
        follower_config = follower_config.durable_store(dir.clone());
    }
    let miner = NodeHandle::open(genesis.clone(), miner_config).expect("in-memory miner opens");
    let follower = NodeHandle::open(genesis, follower_config.build()).expect("follower store opens");
    Setup { owner_key, keys, initial_price, miner, follower, store_dir }
}

/// One round of a timed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    /// When the follower's import returned, ns since the window's start.
    /// The round spans from the end of the round before it.
    pub end_ns: u64,
    /// Transactions the round committed.
    pub commits: u64,
    /// Benchmark time excluded from the timings, from the window's start
    /// up to `end_ns`, ns.
    pub excluded_ns: u64,
    /// The host-speed probe run right after the round: chunks run and the
    /// ns they took; `(0, 0)` in traced windows.
    pub probe: (u64, u64),
}

/// Numbers from one timed window.
#[derive(Debug)]
pub struct Window {
    /// When the window opened; sample times count from here.
    pub start: Instant,
    /// Wall time of the window.
    pub wall: Duration,
    /// Benchmark time inside the window: read cross-checks and host-speed
    /// probes.
    pub excluded: Duration,
    /// Transactions whose block the follower imported inside the window.
    pub committed: u64,
    /// Transactions submitted inside the window.
    pub submitted: u64,
    /// Blocks mined inside the window.
    pub blocks: u64,
    /// The window's rounds, in order.
    pub rounds: Vec<Round>,
    /// The host-speed probe run before the first round: chunks and ns.
    pub opening_probe: (u64, u64),
    /// `(round, latency ns)`: submit → follower-import latency of each
    /// committed transaction, less the benchmark time in between.
    pub commit_ns: Vec<(usize, u64)>,
    /// `(end ns since start, latency ns)` of each read-uncommitted read (both
    /// threads).
    pub read_ns: Vec<(u64, u64)>,
    /// Pool length before each `mine` (traced windows only).
    pub depth_at_mine: Vec<usize>,
    /// The writer's spans.
    pub writer: Option<Tracer>,
    /// The reader's spans (`market_deep`).
    pub reader: Option<Tracer>,
    /// Telemetry of (miner, follower) at the window's start and end, and
    /// their lock-acquisition counts (traced windows only).
    pub telemetry: Option<WindowTelemetry>,
}

impl Window {
    fn new(start: Instant) -> Self {
        Self {
            start,
            wall: Duration::ZERO,
            excluded: Duration::ZERO,
            committed: 0,
            submitted: 0,
            blocks: 0,
            rounds: Vec::new(),
            opening_probe: (0, 0),
            commit_ns: Vec::new(),
            read_ns: Vec::new(),
            depth_at_mine: Vec::new(),
            writer: None,
            reader: None,
            telemetry: None,
        }
    }

    fn since_start(&self, at: Instant) -> u64 {
        at.duration_since(self.start).as_nanos() as u64
    }

    /// Committed transactions per second of wall time, less the
    /// benchmark's own time.
    pub fn tps(&self) -> f64 {
        ratio(self.committed as f64, self.wall.saturating_sub(self.excluded).as_secs_f64())
    }
}

/// Node telemetry bracketing a traced window.
#[derive(Debug)]
pub struct WindowTelemetry {
    /// Miner snapshot at start and end.
    pub miner: (TelemetrySnapshot, TelemetrySnapshot),
    /// Follower snapshot at start and end.
    pub follower: (TelemetrySnapshot, TelemetrySnapshot),
    /// Node-lock acquisitions (miner + follower) during the window.
    pub lock_acquisitions: u64,
}

/// The closed-loop client of one run.
pub struct Driver {
    spec: Spec,
    /// The nodes under test.
    pub setup: Setup,
    ops: OpStream,
    owner: Owner,
    nonces: Vec<u64>,
    read_rng: Rng,
    now: SimTime,
    /// Benchmark time excluded from the timings, over the whole run.
    excluded: Duration,
    /// Submit time of each pending transaction, and `excluded` then.
    submitted_at: HashMap<H256, (Instant, Duration)>,
    buys: Vec<H256>,
    check_next_read: bool,
    committed_total: u64,
    /// Operations attempted and failed so far.
    pub tally: Tally,
}

impl Driver {
    /// A driver over freshly set-up nodes.
    pub fn new(spec: Spec, seed: u64, setup: Setup) -> Self {
        let owner = Owner::with_value(
            setup.owner_key.clone(),
            default_contract_address(),
            genesis_mark(),
            H256::from_low_u64(setup.initial_price),
            OWNER_GAS_PRICE,
        );
        Self {
            ops: OpStream::new(spec, seed),
            nonces: vec![0; spec.accounts],
            read_rng: Rng::new(seed, 2),
            now: 0,
            excluded: Duration::ZERO,
            submitted_at: HashMap::new(),
            buys: Vec::new(),
            check_next_read: false,
            committed_total: 0,
            tally: Tally::default(),
            spec,
            setup,
            owner,
        }
    }

    /// Fills the pool (on `market_deep`) and runs the warm-up rounds.
    pub fn warm_up(&mut self) {
        let mut scratch = Window::new(Instant::now());
        let mut tracer = Tracer::new(scratch.start, false);
        for _ in 0..self.spec.warmup_rounds {
            self.round(&mut scratch, &mut tracer);
        }
    }

    /// Runs rounds for `length`, recording into a fresh [`Window`]; with
    /// `traced`, spans and node telemetry are captured too.
    pub fn run_window(&mut self, length: Duration, traced: bool) -> Window {
        let stop = AtomicBool::new(false);
        let miner = self.setup.miner.clone();
        let follower = self.setup.follower.clone();
        let locks_before = miner.lock_acquisitions() + follower.lock_acquisitions();
        let snapshots = traced.then(|| (miner.telemetry_snapshot(), follower.telemetry_snapshot()));
        let reader_seed = self.read_rng.next_u64();
        let accounts: Vec<Address> = self.setup.keys.iter().map(SecretKey::address).collect();
        let start = Instant::now();
        let mut window = Window::new(start);
        let mut tracer = Tracer::new(start, traced);
        tracer.open_root("writer", start);
        let reader = std::thread::scope(|scope| {
            let reader = (self.spec.driver_threads() > 1).then(|| {
                let (miner, stop, accounts) = (&miner, &stop, &accounts);
                scope.spawn(move || read_loop(miner, stop, accounts, reader_seed, start, traced))
            });
            if !traced {
                let (chunks, took) = host_probe(PROBE_OPENING);
                self.exclude(&mut window, took);
                window.opening_probe = (chunks, took.as_nanos() as u64);
            }
            while start.elapsed() < length {
                let (round_start, rounds) = (Instant::now(), window.rounds.len());
                self.round(&mut window, &mut tracer);
                if !traced && window.rounds.len() > rounds {
                    let budget = round_start.elapsed().mul_f64(PROBE_SHARE).max(PROBE_MIN);
                    let (chunks, took) = host_probe(budget);
                    self.exclude(&mut window, took);
                    let round = window.rounds.last_mut().expect("a round was recorded");
                    round.probe = (chunks, took.as_nanos() as u64);
                }
            }
            stop.store(true, Ordering::SeqCst);
            reader.map(|handle| handle.join().expect("reader thread does not panic"))
        });
        let end = Instant::now();
        tracer.close_root(end);
        window.wall = end - start;
        if let Some((mut reader_tracer, read_ns, tally)) = reader {
            reader_tracer.close_root(end);
            window.read_ns.extend(read_ns);
            self.tally.absorb(tally);
            window.reader = Some(reader_tracer);
        }
        if let Some((miner_before, follower_before)) = snapshots {
            window.telemetry = Some(WindowTelemetry {
                miner: (miner_before, miner.telemetry_snapshot()),
                follower: (follower_before, follower.telemetry_snapshot()),
                lock_acquisitions: miner.lock_acquisitions() + follower.lock_acquisitions() - locks_before,
            });
        }
        window.writer = traced.then_some(tracer);
        window
    }

    /// Mines until the pool is empty, so every submitted transaction has
    /// a receipt; then checks both nodes' state roots directly.
    pub fn drain(&mut self) {
        let mut scratch = Window::new(Instant::now());
        let mut tracer = Tracer::new(scratch.start, false);
        while self.setup.miner.pool_len() > 0 {
            let before = self.committed_total;
            self.mine_round(&mut scratch, &mut tracer);
            if self.committed_total == before {
                let left = self.setup.miner.pool_len();
                self.tally.fail(|| format!("pool stopped draining with {left} transactions left"));
                break;
            }
        }
        self.tally.attempted += 1;
        let (miner_root, follower_root) =
            (self.setup.miner.head_state_root(), self.setup.follower.head_state_root());
        if miner_root != follower_root {
            self.tally.fail(|| format!("final state roots differ: {miner_root} vs {follower_root}"));
        }
        // A failed journal append still answers `Imported`; the node only
        // counts it.
        self.tally.attempted += 1;
        let counters = self.setup.follower.telemetry_snapshot().counters;
        let store_failed = counters.get("node.store_failed").copied().unwrap_or(0);
        if store_failed > 0 {
            self.tally.fail(|| format!("follower store failed to persist {store_failed} blocks"));
        }
    }

    /// Takes `took` of benchmark work out of the timings.
    fn exclude(&mut self, window: &mut Window, took: Duration) {
        self.excluded += took;
        window.excluded += took;
    }

    /// η: the share of submitted buys whose receipt carries `BuyOk`, read
    /// from the follower's chain. A workload without buys loses none: 1.
    pub fn buy_success_ratio(&self) -> f64 {
        if self.buys.is_empty() {
            return 1.0;
        }
        let buys: std::collections::HashSet<H256> = self.buys.iter().copied().collect();
        let succeeded = self.setup.follower.with_inner(|inner| {
            inner
                .chain
                .canonical_chain()
                .flat_map(|stored| stored.receipts.iter())
                .filter(|receipt| buys.contains(&receipt.tx_hash) && receipt.has_event(buy_ok_topic()))
                .count()
        });
        succeeded as f64 / buys.len() as f64
    }

    /// One round: the idle reads of a workload without buys, then submit
    /// (a round of the mix, or a top-up to the target depth), then mine
    /// and import.
    fn round(&mut self, window: &mut Window, tracer: &mut Tracer) {
        self.check_next_read = true;
        if self.spec.idle_reads() > 0 {
            // Taken out of the timings, so that the commit figures are
            // those of the write path alone, as on a workload that does
            // not read.
            let (start, excluded) = (Instant::now(), self.excluded);
            for _ in 0..self.spec.idle_reads() {
                let caller = self.setup.keys[self.read_rng.below(self.spec.accounts)].address();
                self.read(caller, window, tracer);
            }
            let reads = start.elapsed().saturating_sub(self.excluded - excluded);
            self.exclude(window, reads);
        }
        let count = match self.spec.pool_depth {
            None => self.spec.round.len(),
            Some(depth) => depth.saturating_sub(tracer.time("node.pool_len", || self.setup.miner.pool_len())),
        };
        for _ in 0..count {
            let op = self.ops.next_op();
            self.submit(op, window, tracer);
        }
        self.mine_round(window, tracer);
    }

    /// A read-uncommitted read on the miner. The first read of each round
    /// is cross-checked against batch Algorithm 1 over the pending pool
    /// and committed state, both taken in one node-lock acquisition; the
    /// check's time is excluded from the timings.
    fn read(&mut self, caller: Address, window: &mut Window, tracer: &mut Tracer) -> Option<(H256, H256)> {
        let miner = &self.setup.miner;
        let start = Instant::now();
        let observed = miner.query_observed(caller);
        let end = Instant::now();
        tracer.record("raa.read", start, end);
        window.read_ns.push((window.since_start(end), (end - start).as_nanos() as u64));
        self.tally.attempted += 1;
        let Some(observed) = observed else {
            self.tally.fail(|| "read-uncommitted read returned None".to_string());
            return None;
        };
        if std::mem::take(&mut self.check_next_read) {
            let contract = default_contract_address();
            let check_start = Instant::now();
            let expected = tracer.time("bench.check", || {
                let (pending, committed) = miner.with_inner(|inner| {
                    (pending_view(&inner.pool), committed_amv(&inner.chain.head_state_view(), &contract))
                });
                hash_mark_set(&pending, &contract, set_selector(), committed, &HmsConfig::default()).view
            });
            self.exclude(window, check_start.elapsed());
            if (expected.mark, expected.value) != (observed.mark, observed.value) {
                let height = observed.height;
                self.tally.fail(|| format!("read at height {height} disagrees with batch Algorithm 1"));
            }
        }
        Some((observed.mark, observed.value))
    }

    fn submit(&mut self, op: Op, window: &mut Window, tracer: &mut Tracer) {
        let contract = default_contract_address();
        let is_buy = matches!(op, Op::Buy { .. });
        let tx: Transaction = match op {
            Op::Set { value } => {
                let (owner, miner) = (&mut self.owner, &self.setup.miner);
                tracer.time("client.sign", || owner.next_set(miner, H256::from_low_u64(value)))
            }
            Op::Buy { buyer, gas_price } => {
                let address = self.setup.keys[buyer].address();
                let Some((mark, price)) = self.read(address, window, tracer) else { return };
                let nonce = self.nonces[buyer];
                self.nonces[buyer] += 1;
                let key = &self.setup.keys[buyer];
                tracer.time("client.sign", || {
                    let mut client = Buyer::new(key.clone(), contract, ClientKind::Sereth, gas_price);
                    client.set_nonce(nonce);
                    client.next_buy_at(mark, price)
                })
            }
            Op::Transfer { from, to, amount, gas_price } => {
                let nonce = self.nonces[from];
                self.nonces[from] += 1;
                let (key, recipient) = (&self.setup.keys[from], self.setup.keys[to].address());
                tracer.time("client.sign", || transfer(key, nonce, recipient, U256::from(amount), gas_price))
            }
        };
        if tracer.enabled() && !tracer.time("crypto.verify_sig", || tx.verify_signature()) {
            self.tally.fail(|| "benchmark signed an invalid transaction".to_string());
        }
        let hash = tx.hash();
        self.now += 1;
        let start = Instant::now();
        let accepted = self.setup.miner.receive_tx(tx, self.now);
        tracer.record("node.receive_tx", start, Instant::now());
        self.tally.attempted += 1;
        if !accepted {
            self.tally.fail(|| format!("receive_tx refused admissible transaction {hash}"));
            return;
        }
        window.submitted += 1;
        self.submitted_at.insert(hash, (start, self.excluded));
        if is_buy {
            self.buys.push(hash);
        }
    }

    fn mine_round(&mut self, window: &mut Window, tracer: &mut Tracer) {
        let (miner, follower) = (&self.setup.miner, &self.setup.follower);
        if tracer.enabled() {
            window.depth_at_mine.push(tracer.time("node.pool_len", || miner.pool_len()));
        }
        self.now += 1;
        let now = self.now;
        self.tally.attempted += 1;
        let Some(block) = tracer.time("node.mine", || miner.mine(now)) else {
            self.tally.fail(|| "mine returned None".to_string());
            return;
        };
        let (number, hash, root) = (block.number(), block.hash(), block.header.state_root);
        let tx_hashes: Vec<H256> = block.transactions.iter().map(Transaction::hash).collect();
        self.tally.attempted += 1;
        let start = Instant::now();
        let receipt = follower.receive_block(block);
        let imported_at = Instant::now();
        tracer.record("node.receive_block", start, imported_at);
        if receipt != BlockReceipt::Imported {
            self.tally.fail(|| format!("follower import of block {number} was {receipt:?}"));
            return;
        }
        // The follower's replay checked its post-state root against the
        // header the miner sealed, so equal heads mean equal roots; the
        // traced run also compares the roots themselves.
        let heads_agree =
            tracer.time("bench.check", || follower.head_id() == (number, hash) && miner.head_hash() == hash);
        let roots_agree = !tracer.enabled() || {
            let miner_root = tracer.time("state.root", || miner.head_state_root());
            let follower_root = tracer.time("state.root", || follower.head_state_root());
            miner_root == root && follower_root == root
        };
        if !heads_agree || !roots_agree {
            self.tally.fail(|| format!("miner and follower disagree after block {number}"));
            return;
        }
        let commits = tracer.time("bench.check", || {
            let round = window.rounds.len();
            let mut commits = 0;
            for tx_hash in &tx_hashes {
                if let Some((submitted, excluded_then)) = self.submitted_at.remove(tx_hash) {
                    let latency = (imported_at - submitted).saturating_sub(self.excluded - excluded_then);
                    window.commit_ns.push((round, latency.as_nanos() as u64));
                    commits += 1;
                }
            }
            commits
        });
        self.committed_total += commits;
        window.committed += commits;
        window.blocks += 1;
        window.rounds.push(Round {
            end_ns: window.since_start(imported_at),
            commits,
            excluded_ns: window.excluded.as_nanos() as u64,
            probe: (0, 0),
        });
    }

    /// Transactions committed over the whole run, warm-up and drain too.
    pub fn committed_total(&self) -> u64 {
        self.committed_total
    }
}

/// The `market_deep` reader: read-uncommitted reads back to back until
/// `stop`, as random funded accounts.
fn read_loop(
    miner: &NodeHandle,
    stop: &AtomicBool,
    accounts: &[Address],
    seed: u64,
    epoch: Instant,
    traced: bool,
) -> (Tracer, Vec<(u64, u64)>, Tally) {
    let mut rng = Rng::new(seed, 4);
    let mut tracer = Tracer::new(epoch, traced);
    tracer.open_root("reader", epoch);
    let mut read_ns = Vec::new();
    let mut tally = Tally::default();
    while !stop.load(Ordering::SeqCst) {
        let caller = accounts[rng.below(accounts.len())];
        let start = Instant::now();
        let observed = miner.query_observed(caller);
        let end = Instant::now();
        tracer.record("raa.read", start, end);
        read_ns.push((end.duration_since(epoch).as_nanos() as u64, (end - start).as_nanos() as u64));
        tally.attempted += 1;
        if observed.is_none() {
            tally.fail(|| "reader's read-uncommitted read returned None".to_string());
        }
    }
    (tracer, read_ns, tally)
}

/// Total size in bytes of the files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `true` when `workload` has a durable follower.
pub fn durable_follower(workload: Workload) -> bool {
    workload == Workload::TransferWide
}
