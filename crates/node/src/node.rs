//! A full network node: chain store, transaction pool, RAA registry, and
//! the actor that speaks the gossip protocol.
//!
//! A node is either a standard **Geth** client or a modified **Sereth**
//! client (paper §III-B). The only difference — faithfully to the paper —
//! is that the Sereth client compiles in the RAA data service: its RAA
//! registry carries the [`HmsRaaProvider`], so read-only `get`/`mark`
//! calls against the Sereth contract return READ-UNCOMMITTED views.
//! "Deployment of Sereth in the wild would not require a fork" (§V):
//! both kinds interoperate on one network here too, which
//! `tests/interop.rs` exercises.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};
use sereth_chain::builder::{build_block_traced, BlockLimits, BuiltBlock};
use sereth_chain::executor::{call_readonly, BlockEnv};
use sereth_chain::genesis::Genesis;
use sereth_chain::parallel::{ExecMode, ExecStats, ExecStatsCells};
use sereth_chain::state::StateView;
use sereth_chain::store::{ChainStore, ImportError, ImportOutcome, StateBackendConfig, StoreConfig};
use sereth_chain::txpool::{PoolConfig, PoolStats, TxPool};
use sereth_chain::validation::ValidationMode;
use sereth_chain::StoreError;
use sereth_core::hms::HmsConfig;
use sereth_core::process::PendingTx;
use sereth_core::provider::{HmsDataSource, HmsRaaProvider};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_net::sim::{Actor, Context};
use sereth_net::topology::ActorId;
use sereth_raa::{RaaConfig, RaaDataSource, RaaService, ServiceRaaProvider};
use sereth_telemetry::{BlockTrace, Histogram, Phase, Telemetry, TelemetryConfig, TelemetrySnapshot};
use sereth_types::block::Block;
use sereth_types::transaction::Transaction;
use sereth_types::{IsolationLevel, SimTime};
use sereth_vm::abi;
use sereth_vm::raa::RaaRegistry;

use crate::contract::{get_selector, mark_selector, set_selector};
use crate::messages::Msg;
use crate::miner::{committed_amv, market_spec, order_candidates_limited, MinerPolicy};

/// Standard vs. modified client (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientKind {
    /// Unmodified client: state reads are READ-COMMITTED.
    Geth,
    /// HMS-enabled client: RAA serves READ-UNCOMMITTED views.
    Sereth,
}

/// When blocks are produced.
#[derive(Debug, Clone)]
pub enum BlockSchedule {
    /// A block every `interval` milliseconds.
    Fixed(SimTime),
    /// Exponentially distributed inter-block times with the given mean —
    /// memoryless, like proof-of-work.
    Exponential {
        /// Mean interval in milliseconds.
        mean: SimTime,
    },
}

impl BlockSchedule {
    /// Samples the next inter-block delay.
    pub fn next_delay<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        match self {
            Self::Fixed(interval) => (*interval).max(1),
            Self::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                ((-(u.ln()) * *mean as f64) as SimTime).clamp(1, mean.saturating_mul(20))
            }
        }
    }
}

/// Mining configuration for a node.
///
/// `Default` is a standard-ordering miner on a fixed 15 s schedule with
/// the sim's conventional coinbase — the base the
/// [`NodeConfigBuilder`]'s mining setters refine.
#[derive(Debug, Clone)]
pub struct MinerSetup {
    /// Ordering policy.
    pub policy: MinerPolicy,
    /// Production schedule.
    pub schedule: BlockSchedule,
    /// Address credited with fees.
    pub coinbase: Address,
    /// Cap on how many candidates each ordering pass emits. With a cap
    /// the per-block ordering cost is `O(cap)` — independent of the pool
    /// backlog — at the price of not seeing past the cap when candidates
    /// fail execution; `None` (the default everywhere) orders the whole
    /// ready set, exactly as before the indexed pool feed.
    pub candidate_budget: Option<usize>,
}

impl Default for MinerSetup {
    fn default() -> Self {
        Self {
            policy: MinerPolicy::Standard,
            schedule: BlockSchedule::Fixed(15_000),
            coinbase: Address::from_low_u64(0xc0b0),
            candidate_budget: None,
        }
    }
}

/// Which implementation serves RAA views on a Sereth node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaaBackend {
    /// The paper-literal path: snapshot the pool and rerun Algorithm 1
    /// on every query (`HmsRaaProvider`). O(pool) per read; kept for
    /// fidelity testing and as the A/B baseline in `sereth-bench`.
    Recompute,
    /// The incremental `sereth-raa` view service: pool events maintain
    /// per-contract series caches; reads are O(1) when nothing relevant
    /// changed. The default.
    Service {
        /// Contract-shard count of the service.
        shards: usize,
    },
}

impl Default for RaaBackend {
    fn default() -> Self {
        Self::Service { shards: 8 }
    }
}

/// Per-node configuration.
///
/// Construct through [`NodeConfig::builder`] or the presets
/// ([`NodeConfig::geth`], [`NodeConfig::sereth`], [`NodeConfig::miner`]):
/// the builder is the one construction surface, so a new knob (like
/// [`NodeConfig::isolation`]) never again requires touching every
/// call site. The fields stay public for inspection and for
/// `NodeHandle::with_inner_mut`-style rewiring.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Client kind (decides whether RAA/HMS is compiled in).
    pub kind: ClientKind,
    /// Address of the Sereth contract under management.
    pub contract: Address,
    /// Mining setup, if this node mines.
    pub miner: Option<MinerSetup>,
    /// Block capacity limits.
    pub limits: BlockLimits,
    /// HMS extensions (committed-head).
    pub hms: HmsConfig,
    /// RAA serving strategy (Sereth nodes only).
    pub raa_backend: RaaBackend,
    /// How mined blocks execute their candidates (both client kinds can
    /// mine with the conflict-aware parallel executor — it changes the
    /// block's production cost, never its bytes).
    pub exec_mode: ExecMode,
    /// How received blocks replay during validation — the cost every peer
    /// pays for every block (paper §II-D). Parallel replay is
    /// verdict-equivalent to sequential, so it changes import cost, never
    /// which blocks this node accepts.
    pub validation_mode: ValidationMode,
    /// Transaction-pool configuration (shard count, capacity, event
    /// buffer). The node overrides [`PoolConfig::market`] with the Sereth
    /// contract's selectors so `set`/`buy` calldata is pre-parsed at
    /// insert.
    pub pool: PoolConfig,
    /// The telemetry switch. On by default (the layer is cheap enough to
    /// leave running); disabled, every subsystem records nothing and the
    /// registry-backed stats views read zero.
    pub telemetry: TelemetryConfig,
    /// Which rung of the isolation ladder this node serves read-only
    /// queries (and miner ordering) at. The default —
    /// [`IsolationLevel::ReadUncommitted`] — is the paper's mode and
    /// preserves the historical behavior of every read path exactly:
    ///
    /// * `ReadUncommitted`: RAA/HMS queries see the pending pool;
    /// * `ReadCommitted`: queries answer from the committed head only,
    ///   and semantic/PWV miner ordering (which reads pending state)
    ///   degrades to standard ordering;
    /// * `Sequential`: queries additionally answer from a view pinned at
    ///   the last import — one serialization point between blocks, no
    ///   speculative answers.
    pub isolation: IsolationLevel,
    /// Which state backend the chain store opens on: in-memory (the
    /// default) or the durable snapshot + journal directory. Durable
    /// nodes must be built with [`NodeHandle::open`] so recovery errors
    /// surface instead of panicking.
    pub store: StateBackendConfig,
}

impl Default for NodeConfig {
    /// A non-mining Geth client on the default contract at
    /// READ-UNCOMMITTED — the base every preset refines.
    fn default() -> Self {
        Self {
            kind: ClientKind::Geth,
            contract: crate::contract::default_contract_address(),
            miner: None,
            limits: BlockLimits::default(),
            hms: HmsConfig::default(),
            raa_backend: RaaBackend::default(),
            exec_mode: ExecMode::default(),
            validation_mode: ValidationMode::default(),
            pool: PoolConfig::default(),
            telemetry: TelemetryConfig::default(),
            isolation: IsolationLevel::default(),
            store: StateBackendConfig::InMemory,
        }
    }
}

impl NodeConfig {
    /// A builder over [`NodeConfig::default`].
    pub fn builder() -> NodeConfigBuilder {
        NodeConfigBuilder { config: NodeConfig::default() }
    }

    /// Preset: a non-mining standard (Geth) client on `contract`.
    pub fn geth(contract: Address) -> NodeConfigBuilder {
        Self::builder().kind(ClientKind::Geth).contract(contract)
    }

    /// Preset: a non-mining Sereth client (RAA/HMS compiled in) on
    /// `contract`.
    pub fn sereth(contract: Address) -> NodeConfigBuilder {
        Self::builder().kind(ClientKind::Sereth).contract(contract)
    }

    /// Preset: a mining node on `contract` ordering with `policy`. The
    /// client kind follows the policy — semantic/PWV ordering is the
    /// modified client's behavior, standard ordering the stock one —
    /// and can be overridden with [`NodeConfigBuilder::kind`].
    pub fn miner(contract: Address, policy: MinerPolicy) -> NodeConfigBuilder {
        let kind = match policy {
            MinerPolicy::Standard => ClientKind::Geth,
            _ => ClientKind::Sereth,
        };
        Self::builder().kind(kind).contract(contract).mining(policy)
    }
}

/// Chainable constructor for [`NodeConfig`] — every construction site
/// outside this module goes through it (or a preset returning it).
#[derive(Debug, Clone, Default)]
pub struct NodeConfigBuilder {
    config: NodeConfig,
}

impl NodeConfigBuilder {
    /// Sets the client kind.
    pub fn kind(mut self, kind: ClientKind) -> Self {
        self.config.kind = kind;
        self
    }

    /// Sets the managed contract address.
    pub fn contract(mut self, contract: Address) -> Self {
        self.config.contract = contract;
        self
    }

    /// Sets the isolation level read paths run at.
    pub fn isolation(mut self, level: IsolationLevel) -> Self {
        self.config.isolation = level;
        self
    }

    /// Selects the chain-store backend (in-memory by default). Pair a
    /// durable choice with [`NodeHandle::open`] so recovery errors
    /// surface as `Result` instead of a panic.
    pub fn store(mut self, store: StateBackendConfig) -> Self {
        self.config.store = store;
        self
    }

    /// Shorthand for a durable store under `dir` with default
    /// [`sereth_chain::DurableOptions`].
    pub fn durable_store(self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.store(StateBackendConfig::Durable {
            dir: dir.into(),
            options: sereth_chain::DurableOptions::default(),
        })
    }

    /// Installs a fully specified mining setup.
    pub fn miner_setup(mut self, setup: MinerSetup) -> Self {
        self.config.miner = Some(setup);
        self
    }

    /// Makes this node mine with `policy` (default schedule and
    /// coinbase; refine with [`NodeConfigBuilder::schedule`],
    /// [`NodeConfigBuilder::coinbase`],
    /// [`NodeConfigBuilder::candidate_budget`]).
    pub fn mining(mut self, policy: MinerPolicy) -> Self {
        self.miner_mut().policy = policy;
        self
    }

    /// Removes any mining setup (presets like [`NodeConfig::miner`]
    /// install one).
    pub fn no_miner(mut self) -> Self {
        self.config.miner = None;
        self
    }

    /// Sets the miner's block-production schedule (installing a
    /// standard-ordering setup if none exists yet).
    pub fn schedule(mut self, schedule: BlockSchedule) -> Self {
        self.miner_mut().schedule = schedule;
        self
    }

    /// Sets the miner's coinbase (installing a standard-ordering setup
    /// if none exists yet).
    pub fn coinbase(mut self, coinbase: Address) -> Self {
        self.miner_mut().coinbase = coinbase;
        self
    }

    /// Caps the per-block candidate-ordering pass (installing a
    /// standard-ordering setup if none exists yet).
    pub fn candidate_budget(mut self, budget: Option<usize>) -> Self {
        self.miner_mut().candidate_budget = budget;
        self
    }

    fn miner_mut(&mut self) -> &mut MinerSetup {
        self.config.miner.get_or_insert_with(MinerSetup::default)
    }

    /// Sets the block capacity limits.
    pub fn limits(mut self, limits: BlockLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// Sets the block gas limit, keeping the other limits.
    pub fn gas_limit(mut self, gas_limit: u64) -> Self {
        self.config.limits.gas_limit = gas_limit;
        self
    }

    /// Sets the per-block transaction cap, keeping the other limits.
    pub fn max_txs(mut self, max_txs: Option<usize>) -> Self {
        self.config.limits.max_txs = max_txs;
        self
    }

    /// Sets the HMS extension parameters.
    pub fn hms(mut self, hms: HmsConfig) -> Self {
        self.config.hms = hms;
        self
    }

    /// Sets the RAA serving backend (Sereth nodes only).
    pub fn raa_backend(mut self, backend: RaaBackend) -> Self {
        self.config.raa_backend = backend;
        self
    }

    /// Sets how mined blocks execute their candidates.
    pub fn exec_mode(mut self, mode: ExecMode) -> Self {
        self.config.exec_mode = mode;
        self
    }

    /// Sets how received blocks replay during validation.
    pub fn validation_mode(mut self, mode: ValidationMode) -> Self {
        self.config.validation_mode = mode;
        self
    }

    /// Sets the transaction-pool configuration.
    pub fn pool(mut self, pool: PoolConfig) -> Self {
        self.config.pool = pool;
        self
    }

    /// Sets the telemetry configuration.
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Switches telemetry on or off, keeping the rest of its config.
    pub fn telemetry_enabled(mut self, enabled: bool) -> Self {
        self.config.telemetry.enabled = enabled;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> NodeConfig {
        self.config
    }
}

/// The lock-protected node state.
pub struct NodeInner {
    /// Chain store (canonical chain + side chains).
    pub chain: ChainStore,
    /// Pending transaction pool. Internally synchronized (sharded) and
    /// held by `Arc`, so submission and the miner's ordering pass run
    /// *outside* the node lock against the same pool.
    pub pool: Arc<TxPool>,
    /// RAA registry (holds the HMS provider on Sereth nodes).
    pub raa: RaaRegistry,
    /// Static configuration.
    pub config: NodeConfig,
    /// The incremental RAA view service, when
    /// [`RaaBackend::Service`] is active (exposed for metrics).
    pub raa_service: Option<Arc<RaaService>>,
    /// Blocks whose parents have not arrived yet.
    orphans: Vec<Block>,
    /// Gossip dedup for transactions.
    seen_txs: std::collections::HashSet<H256>,
    /// The SEQUENTIAL rung's serialization point: the head `(height,
    /// view)` as of the last import. Queries at
    /// [`IsolationLevel::Sequential`] answer from this pin — never from
    /// a head that moved mid-conversation — so every read between two
    /// imports observes one consistent height.
    pinned_view: (u64, sereth_chain::state::StateView),
}

impl NodeInner {
    /// The head read transaction: height and epoch-pinned view captured
    /// together under the lock already held. Every committed read path
    /// goes through this (or [`NodeInner::pinned_reader`]) so height and
    /// view can never disagree.
    pub fn head_reader(&self) -> StateReader {
        StateReader { height: self.chain.head_number(), view: self.chain.head_state_view() }
    }

    /// The SEQUENTIAL-rung read transaction: the view pinned at the last
    /// import (its epoch pin travels with the stored view).
    pub fn pinned_reader(&self) -> StateReader {
        let (height, view) = self.pinned_view.clone();
        StateReader { height, view }
    }
}

/// An epoch-pinned read transaction over a node's committed state: an
/// O(1) [`StateView`] stamped with the height it was captured at, taken
/// in a single lock acquisition. While any clone is alive, garbage
/// collection keeps that epoch servable (durable backends included), and
/// copy-on-write keeps the bytes frozen — reads through a reader are
/// repeatable no matter how far the chain advances.
#[derive(Debug, Clone)]
pub struct StateReader {
    height: u64,
    view: StateView,
}

impl StateReader {
    /// The canonical height this reader was captured at.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// The frozen state view.
    pub fn view(&self) -> &StateView {
        &self.view
    }

    /// Consumes the reader into its view (the pin travels along).
    pub fn into_view(self) -> StateView {
        self.view
    }

    /// Commitment to the viewed state.
    pub fn state_root(&self) -> H256 {
        self.view.state_root()
    }
}

/// Outcome of [`NodeHandle::receive_block`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockReceipt {
    /// Newly imported (possibly with previously-orphaned descendants);
    /// forward to peers.
    Imported,
    /// Already known; do not forward again.
    Known,
    /// Parent unknown; stashed for retry, not forwarded yet.
    Orphaned,
    /// Validation failed; dropped.
    Rejected,
}

/// One read-only market observation, stamped with the serialization
/// point it was served at. Clients log these; the offline checker in
/// `sereth-consistency` judges each against the committed chain as of
/// `height` to count dirty reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsoObservation {
    /// The read mode that produced the answer (the node's isolation
    /// level for queries; READ COMMITTED for `committed_observed`).
    pub level: IsolationLevel,
    /// Committed head height the answer was served at (the pinned
    /// height at SEQUENTIAL).
    pub height: u64,
    /// Observed mark.
    pub mark: H256,
    /// Observed value.
    pub value: H256,
}

/// Per-rung read counter names (`iso.reads.*`).
fn iso_read_counter(level: IsolationLevel) -> &'static str {
    match level {
        IsolationLevel::ReadUncommitted => "iso.reads.read_uncommitted",
        IsolationLevel::ReadCommitted => "iso.reads.read_committed",
        IsolationLevel::Sequential => "iso.reads.sequential",
    }
}

/// The ordering policy a miner may actually run at `isolation`:
/// semantic and PWV ordering consult the pending pool's uncommitted
/// writes, which READ COMMITTED and SEQUENTIAL forbid — there they
/// degrade to standard (price) ordering, counted on
/// `iso.policy_degraded` per ordering pass.
pub(crate) fn effective_policy(
    policy: &MinerPolicy,
    isolation: IsolationLevel,
    telemetry: &Telemetry,
) -> MinerPolicy {
    if isolation == IsolationLevel::ReadUncommitted || matches!(policy, MinerPolicy::Standard) {
        return policy.clone();
    }
    telemetry.counter("iso.policy_degraded").inc();
    MinerPolicy::Standard
}

/// A shareable handle to one node. Clients attached to the node (the
/// paper's smart-contract users) query through this handle — the analogue
/// of local RPC against one's own client process.
#[derive(Clone)]
pub struct NodeHandle {
    inner: Arc<Mutex<NodeInner>>,
    /// Counts every acquisition of the node lock through this handle —
    /// instrumentation the lock-discipline regression tests key on (the
    /// RAA provider's data source locks separately, by design).
    locks: Arc<AtomicU64>,
    /// The node-wide telemetry hub every subsystem (pool, store, RAA
    /// service, executor cells) records into.
    telemetry: Arc<Telemetry>,
    /// Registry cells accumulating the miner's executor stats (`exec.*`)
    /// — absorbed outside the node lock, read without any lock.
    pub(crate) exec_cells: ExecStatsCells,
    /// The store's `validation.*` cells, shared so replay counters are
    /// readable without the node lock.
    validation_cells: ExecStatsCells,
    /// Hold-time histogram of the node lock (`node.lock_hold`).
    lock_hold: Histogram,
}

/// The counted node-lock guard: dereferences to [`NodeInner`] and, when
/// telemetry is enabled, records how long the lock was *held* (not
/// waited for) into the `node.lock_hold` histogram on drop.
pub(crate) struct NodeLockGuard<'a> {
    guard: MutexGuard<'a, NodeInner>,
    held_since: Option<Instant>,
    hold: &'a Histogram,
}

impl Deref for NodeLockGuard<'_> {
    type Target = NodeInner;

    fn deref(&self) -> &NodeInner {
        &self.guard
    }
}

impl DerefMut for NodeLockGuard<'_> {
    fn deref_mut(&mut self) -> &mut NodeInner {
        &mut self.guard
    }
}

impl Drop for NodeLockGuard<'_> {
    fn drop(&mut self) {
        if let Some(since) = self.held_since {
            self.hold.record_ns(since.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

impl NodeHandle {
    /// Acquires the node lock, counting the acquisition. Disabled
    /// telemetry skips the clock entirely — the guard is then exactly a
    /// counted `MutexGuard`.
    pub(crate) fn lock(&self) -> NodeLockGuard<'_> {
        self.locks.fetch_add(1, Ordering::Relaxed);
        let guard = self.inner.lock();
        let held_since = self.lock_hold.is_enabled().then(Instant::now);
        NodeLockGuard { guard, held_since, hold: &self.lock_hold }
    }

    /// How many times this handle (any clone of it) has acquired the node
    /// lock. Read-only queries must cost exactly one acquisition — the
    /// regression test for the historical double-lock in
    /// [`NodeHandle::query_view`] asserts on deltas of this counter.
    pub fn lock_acquisitions(&self) -> u64 {
        self.locks.load(Ordering::Relaxed)
    }
}

/// [`HmsDataSource`] over a node, held weakly by the RAA provider to avoid
/// a reference cycle.
struct NodeSource(Weak<Mutex<NodeInner>>);

impl HmsDataSource for NodeSource {
    fn pending(&self) -> Vec<PendingTx> {
        let Some(node) = self.0.upgrade() else { return Vec::new() };
        let pool = node.lock().pool.clone();
        // The node lock is already released: the walk contends only on
        // the pool's own shard locks.
        crate::miner::pending_view(&pool)
    }

    fn for_each_pending(&self, visit: &mut dyn FnMut(&PendingTx)) {
        let Some(node) = self.0.upgrade() else { return };
        let pool = node.lock().pool.clone();
        // Borrowed walk: no per-query clone of the pool (the provider
        // filters as it goes, so only this contract's sets are copied).
        pool.with_entries_by_arrival(|entries| {
            for entry in entries {
                visit(&crate::miner::pending_tx(entry));
            }
        });
    }

    fn committed(&self, contract: &Address) -> (H256, H256) {
        let Some(node) = self.0.upgrade() else { return (H256::ZERO, H256::ZERO) };
        let view = node.lock().chain.head_state_view();
        committed_amv(&view, contract)
    }
}

impl RaaDataSource for NodeSource {
    fn sync(&self, service: &RaaService) {
        let Some(node) = self.0.upgrade() else { return };
        let pool = node.lock().pool.clone();
        // Event draining happens outside the node lock; the service's own
        // cursor mutex serialises concurrent syncs.
        service.sync(&pool);
    }

    fn committed(&self, contract: &Address) -> (H256, H256) {
        HmsDataSource::committed(self, contract)
    }
}

impl NodeHandle {
    /// Builds a node from `genesis` with the given configuration,
    /// panicking if the store cannot open. In-memory opens are
    /// infallible, so this stays the ergonomic constructor for
    /// simulations and tests; durable nodes should prefer
    /// [`NodeHandle::open`].
    pub fn new(genesis: Genesis, config: NodeConfig) -> Self {
        Self::open(genesis, config).expect("store opens")
    }

    /// Builds a node from `genesis` with the given configuration,
    /// opening (and, for a durable backend, recovering) the chain store.
    /// Sereth nodes get the HMS RAA provider installed for the
    /// contract's `get`/`mark` selectors.
    ///
    /// # Errors
    ///
    /// Whatever [`ChainStore::open`] reports: I/O failure, corrupt
    /// on-disk data, or a directory from a different genesis.
    pub fn open(genesis: Genesis, config: NodeConfig) -> Result<Self, StoreError> {
        let telemetry = Arc::new(Telemetry::new(config.telemetry));
        let pool_config = PoolConfig { market: Some(market_spec()), ..config.pool.clone() };
        let chain = ChainStore::open(
            StoreConfig::in_memory(genesis)
                .with_backend(config.store.clone())
                .validation_mode(config.validation_mode)
                .telemetry(telemetry.clone()),
        )?;
        let pinned_view = (chain.head_number(), chain.head_state_view());
        let inner = NodeInner {
            chain,
            pool: Arc::new(TxPool::with_telemetry(pool_config, telemetry.clone())),
            raa: RaaRegistry::new(),
            config,
            raa_service: None,
            orphans: Vec::new(),
            seen_txs: std::collections::HashSet::new(),
            pinned_view,
        };
        let exec_cells = ExecStatsCells::register(&telemetry, "exec");
        let validation_cells = inner.chain.validation_cells().clone();
        let lock_hold = telemetry.histogram("node.lock_hold");
        let handle = Self {
            inner: Arc::new(Mutex::new(inner)),
            locks: Arc::new(AtomicU64::new(0)),
            telemetry,
            exec_cells,
            validation_cells,
            lock_hold,
        };
        {
            let mut inner = handle.inner.lock();
            // The RAA provider exists to serve READ-UNCOMMITTED views;
            // at the stronger rungs queries never consult it, so neither
            // the provider nor the pool's event buffering is installed —
            // a Sereth node at READ COMMITTED pays nothing for RAA.
            if inner.config.kind == ClientKind::Sereth
                && inner.config.isolation == IsolationLevel::ReadUncommitted
            {
                let source = Arc::new(NodeSource(Arc::downgrade(&handle.inner)));
                let provider: Arc<dyn sereth_vm::raa::RaaProvider> = match inner.config.raa_backend {
                    RaaBackend::Recompute => {
                        Arc::new(HmsRaaProvider::new(source, set_selector(), inner.config.hms.clone()))
                    }
                    RaaBackend::Service { shards } => {
                        let hms = inner.config.hms.clone();
                        // Only the service backend pays for event
                        // buffering; unwatched pools skip it entirely.
                        inner.pool.subscribe();
                        let service = Arc::new(RaaService::with_telemetry(
                            RaaConfig { shards, set_selector: set_selector(), hms },
                            handle.telemetry.clone(),
                        ));
                        inner.raa_service = Some(service.clone());
                        Arc::new(ServiceRaaProvider::new(service, source))
                    }
                };
                let contract = inner.config.contract;
                inner.raa.enable(contract, get_selector());
                inner.raa.enable(contract, mark_selector());
                inner.raa.set_provider(provider);
            }
        }
        Ok(handle)
    }

    /// The incremental RAA service's counters, when the node runs the
    /// [`RaaBackend::Service`] backend.
    pub fn raa_metrics(&self) -> Option<sereth_raa::RaaMetrics> {
        self.lock().raa_service.as_ref().map(|service| service.metrics())
    }

    /// The node's client kind.
    pub fn kind(&self) -> ClientKind {
        self.lock().config.kind
    }

    /// The isolation level this node serves read-only queries at.
    pub fn isolation(&self) -> IsolationLevel {
        self.lock().config.isolation
    }

    /// The height the SEQUENTIAL rung is currently pinned to (the head
    /// as of the last import).
    pub fn pinned_height(&self) -> u64 {
        self.lock().pinned_view.0
    }

    /// Canonical head height.
    pub fn head_number(&self) -> u64 {
        self.lock().chain.head_number()
    }

    /// Canonical head hash, with the height it was read at — one lock
    /// acquisition, so the pair is consistent (gossip can move the head
    /// between two separate calls).
    pub fn head_id(&self) -> (u64, H256) {
        let inner = self.lock();
        (inner.chain.head_number(), inner.chain.head_hash())
    }

    /// Canonical head hash.
    pub fn head_hash(&self) -> H256 {
        self.lock().chain.head_hash()
    }

    /// The state root at the canonical head — what cluster convergence
    /// checks compare byte-for-byte across nodes.
    pub fn head_state_root(&self) -> H256 {
        self.lock().chain.head_state().state_root()
    }

    /// The parent hashes this node is still missing for its stashed
    /// orphans (deduplicated, in stash order) — what an anti-entropy
    /// pass re-requests from peers, since the original `GetBlock` may
    /// have been dropped by the network.
    pub fn orphan_parents(&self) -> Vec<H256> {
        let inner = self.lock();
        let mut parents = Vec::new();
        for block in &inner.orphans {
            let parent = block.header.parent_hash;
            if inner.chain.get(&parent).is_none() && !parents.contains(&parent) {
                parents.push(parent);
            }
        }
        parents
    }

    /// Total blocks this node stores, side chains included. Exceeding the
    /// canonical length proves the node held (and abandoned) a competing
    /// branch — the observable trace of a reorg.
    pub fn stored_blocks(&self) -> usize {
        self.lock().chain.len()
    }

    /// Number of pooled transactions.
    pub fn pool_len(&self) -> usize {
        self.lock().pool.len()
    }

    /// `true` if the pool currently holds `hash`.
    pub fn pool_contains(&self, hash: &H256) -> bool {
        self.lock().pool.contains(hash)
    }

    /// The committed `(mark, value)` of the managed contract — what a
    /// standard Geth client sees (READ-COMMITTED).
    pub fn committed_amv(&self) -> (H256, H256) {
        let observation = self.committed_observed();
        (observation.mark, observation.value)
    }

    /// [`NodeHandle::committed_amv`] with its serialization point: the
    /// committed `(mark, value)` stamped with the head height it was
    /// read at, in the same single lock acquisition. This is the
    /// observation clients log for the offline dirty-read audit.
    pub fn committed_observed(&self) -> IsoObservation {
        let (reader, contract) = {
            let inner = self.lock();
            (inner.head_reader(), inner.config.contract)
        };
        let (mark, value) = committed_amv(reader.view(), &contract);
        IsoObservation { level: IsolationLevel::ReadCommitted, height: reader.height(), mark, value }
    }

    /// Account nonce at the canonical head.
    pub fn account_nonce(&self, address: &Address) -> u64 {
        self.lock().chain.head_state_view().nonce_of(address)
    }

    /// An O(1) immutable snapshot of the canonical head state, plus the
    /// height it was taken at. The view can be held across blocks: it
    /// stays frozen while the node keeps sealing. Sugar over
    /// [`NodeHandle::state_reader`].
    pub fn head_state_view(&self) -> (u64, sereth_chain::state::StateView) {
        let reader = self.state_reader();
        (reader.height(), reader.into_view())
    }

    /// Opens an epoch-pinned read transaction at the canonical head —
    /// one lock acquisition, O(1), frozen and GC-protected until the
    /// last clone drops.
    pub fn state_reader(&self) -> StateReader {
        self.lock().head_reader()
    }

    /// Opens an epoch-pinned read transaction at a historical canonical
    /// `height` — `None` when the height does not exist or was pruned
    /// below the durable backend's retention floor.
    pub fn state_reader_at(&self, height: u64) -> Option<StateReader> {
        self.lock().chain.state_view_at(height).map(|view| StateReader { height, view })
    }

    /// Issues the two read-only calls `mark(...)` and `get(...)` against
    /// the contract, answered at the node's configured
    /// [`IsolationLevel`]. Returns `(mark, value)`.
    ///
    /// At READ UNCOMMITTED (the default, the paper's mode) the calls
    /// execute with RAA applied when this node is a Sereth client (paper
    /// Fig. 1); on a Geth node they execute without augmentation and
    /// echo the zero arguments — callers should use
    /// [`NodeHandle::committed_amv`] instead, exactly as unmodified
    /// clients must. At the stronger rungs both kinds answer from
    /// committed state only — see [`NodeHandle::query_observed`].
    pub fn query_view(&self, caller: Address) -> Option<(H256, H256)> {
        self.query_observed_inner(None, caller).map(|observation| (observation.mark, observation.value))
    }

    /// Like [`NodeHandle::query_view`] but against an explicit contract —
    /// one node (and one RAA provider) serves many independent markets,
    /// provided RAA was enabled for that contract's selectors (see
    /// [`NodeHandle::enable_market`]).
    pub fn query_view_for(&self, contract: Address, caller: Address) -> Option<(H256, H256)> {
        self.query_observed_inner(Some(contract), caller)
            .map(|observation| (observation.mark, observation.value))
    }

    /// [`NodeHandle::query_view`] with its serialization point: the
    /// answer stamped with the level that produced it and the height it
    /// was served at — at [`IsolationLevel::Sequential`] the *pinned*
    /// height, which moves only on import. This is the observation
    /// clients log for the offline dirty-read audit.
    pub fn query_observed(&self, caller: Address) -> Option<IsoObservation> {
        self.query_observed_inner(None, caller)
    }

    /// [`NodeHandle::query_observed`] against an explicit contract.
    pub fn query_observed_for(&self, contract: Address, caller: Address) -> Option<IsoObservation> {
        self.query_observed_inner(Some(contract), caller)
    }

    /// The single-lock read path behind every query entry point: ONE
    /// lock acquisition captures the configured contract (when none was
    /// given) and whatever the isolation level serves from — head view +
    /// RAA registry + block env at READ UNCOMMITTED, the bare head view
    /// at READ COMMITTED, the pinned view at SEQUENTIAL. The answer is
    /// produced outside the lock against the frozen view, so read
    /// latency is independent of both state size and writer activity at
    /// every rung, and each rung counts its reads (`iso.reads.*`).
    fn query_observed_inner(&self, contract: Option<Address>, caller: Address) -> Option<IsoObservation> {
        enum ReadMode {
            Speculative { raa: RaaRegistry, env: BlockEnv },
            Committed,
        }
        let (level, contract, height, state, mode) = {
            let inner = self.lock();
            let level = inner.config.isolation;
            let contract = contract.unwrap_or(inner.config.contract);
            match level {
                IsolationLevel::ReadUncommitted => {
                    let head = inner.chain.head_block().header.clone();
                    let env = BlockEnv {
                        number: head.number,
                        timestamp_ms: head.timestamp_ms,
                        gas_limit: head.gas_limit,
                        miner: head.miner,
                    };
                    let mode = ReadMode::Speculative { raa: inner.raa.clone(), env };
                    (level, contract, head.number, inner.chain.head_state_view(), mode)
                }
                IsolationLevel::ReadCommitted => {
                    let reader = inner.head_reader();
                    (level, contract, reader.height(), reader.into_view(), ReadMode::Committed)
                }
                IsolationLevel::Sequential => {
                    let reader = inner.pinned_reader();
                    (level, contract, reader.height(), reader.into_view(), ReadMode::Committed)
                }
            }
        };
        self.telemetry.counter(iso_read_counter(level)).inc();
        let (mark, value) = match mode {
            ReadMode::Speculative { raa, env } => {
                // The lock is released: the provider re-locks the node
                // inside `augment` without deadlocking.
                let zero = [H256::ZERO, H256::ZERO, H256::ZERO];
                let mark_out = call_readonly(
                    &state,
                    caller,
                    contract,
                    abi::encode_call(mark_selector(), &zero),
                    &env,
                    &raa,
                );
                let mark = abi::decode_word(&mark_out.return_data)?;
                let get_out = call_readonly(
                    &state,
                    caller,
                    contract,
                    abi::encode_call(get_selector(), &zero),
                    &env,
                    &raa,
                );
                (mark, abi::decode_word(&get_out.return_data)?)
            }
            ReadMode::Committed => committed_amv(&state, &contract),
        };
        Some(IsoObservation { level, height, mark, value })
    }

    /// Enables RAA on this node for an additional market contract's
    /// `get`/`mark` selectors (the configured contract is enabled at
    /// construction). No-op on Geth nodes.
    pub fn enable_market(&self, contract: Address) {
        let mut inner = self.lock();
        if inner.config.kind == ClientKind::Sereth {
            inner.raa.enable(contract, get_selector());
            inner.raa.enable(contract, mark_selector());
        }
    }

    /// Accepts a transaction from gossip or local submission. Returns
    /// `true` when newly accepted (the caller should gossip it onward).
    ///
    /// The node lock is held only for the gossip-dedup check and an O(1)
    /// state-view capture; signature verification and the pool insert run
    /// outside it, so submission from many clients contends on the pool's
    /// sender shards — not on the miner's node lock.
    pub fn receive_tx(&self, tx: Transaction, now: SimTime) -> bool {
        self.telemetry.time(Phase::ReceiveTx, || {
            let (pool, view) = {
                let mut inner = self.lock();
                if !inner.seen_txs.insert(tx.hash()) {
                    return false;
                }
                (inner.pool.clone(), inner.chain.head_state_view())
            };
            if !tx.verify_signature() {
                return false;
            }
            if tx.nonce() < view.nonce_of(&tx.sender()) {
                return false; // stale
            }
            pool.insert(tx, now).is_ok()
        })
    }

    /// Accepts a block from gossip, importing it and any orphans it
    /// unblocks.
    pub fn receive_block(&self, block: Block) -> BlockReceipt {
        let mut inner = self.lock();
        if inner.chain.get(&block.hash()).is_some() {
            return BlockReceipt::Known;
        }
        match inner.chain.import(block.clone()) {
            Ok(ImportOutcome::AlreadyKnown) => BlockReceipt::Known,
            Ok(_) => {
                Self::after_import(&mut inner, &block);
                Self::retry_orphans(&mut inner);
                BlockReceipt::Imported
            }
            Err(ImportError::UnknownParent) => {
                if inner.orphans.len() < 1024 {
                    inner.orphans.push(block);
                }
                BlockReceipt::Orphaned
            }
            Err(ImportError::Invalid(_)) => BlockReceipt::Rejected,
            // The block entered the in-memory chain; only the journal
            // append failed. Keep serving (and forwarding) from memory,
            // but make the persistence fault observable.
            Err(ImportError::Store(_)) => {
                Self::after_import(&mut inner, &block);
                Self::retry_orphans(&mut inner);
                drop(inner);
                self.telemetry.counter("node.store_failed").inc();
                BlockReceipt::Imported
            }
        }
    }

    fn after_import(inner: &mut NodeInner, block: &Block) {
        let NodeInner { chain, pool, .. } = inner;
        pool.remove_committed(block.transactions.iter());
        let head_state = chain.head_state();
        pool.prune_stale(|sender| head_state.nonce_of(sender));
        // Advance the SEQUENTIAL serialization point: imports are the
        // only place the pin moves, so between two imports every pinned
        // query answers at one height.
        inner.pinned_view = (inner.chain.head_number(), inner.chain.head_state_view());
    }

    fn retry_orphans(inner: &mut NodeInner) {
        loop {
            let mut progressed = false;
            let mut remaining = Vec::new();
            let orphans = std::mem::take(&mut inner.orphans);
            for block in orphans {
                if inner.chain.get(&block.hash()).is_some() {
                    continue;
                }
                match inner.chain.import(block.clone()) {
                    Ok(ImportOutcome::AlreadyKnown) => {}
                    // A Store error still imported in memory — same as Ok
                    // here; receive_block surfaces persistence faults.
                    Ok(_) | Err(ImportError::Store(_)) => {
                        Self::after_import(inner, &block);
                        progressed = true;
                    }
                    Err(ImportError::UnknownParent) => remaining.push(block),
                    Err(ImportError::Invalid(_)) => {}
                }
            }
            inner.orphans = remaining;
            if !progressed {
                break;
            }
        }
    }

    /// The transaction pool's counters: indexed ordering reads, forced
    /// rebuilds, rescan fallbacks, and shard-lock contention — the
    /// observable face of the sharded pool feed.
    pub fn pool_stats(&self) -> PoolStats {
        self.lock().pool.stats()
    }

    /// Cumulative executor counters over every block this node has mined —
    /// the observable face of the parallel executor (fallbacks prove the
    /// mis-speculation path ran; fast commits prove speculation paid off).
    ///
    /// Registry-backed: reads relaxed atomics, never the node lock, so
    /// monitoring cannot stall (or be stalled by) the miner.
    pub fn exec_stats(&self) -> ExecStats {
        self.exec_cells.snapshot()
    }

    /// Cumulative executor counters over every block this node has
    /// replay-validated — the validation-side twin of
    /// [`NodeHandle::exec_stats`]. Every foreign block (gossip, orphan
    /// retry) replays through the chain store, so this is the per-peer
    /// redundant-validation cost the paper's §II-D cost model describes.
    /// The node's own mined blocks are adopted without replay and count
    /// nothing here (debug builds replay them as an uncounted oracle).
    /// Lock-free, like [`NodeHandle::exec_stats`].
    pub fn validation_stats(&self) -> ExecStats {
        self.validation_cells.snapshot()
    }

    /// The node's telemetry hub (shared with the pool, store, executor
    /// cells, and RAA service).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// An owned snapshot of every metric this node recorded — counters
    /// (`pool.*`, `exec.*`, `validation.*`, `raa.*`), gauges, phase and
    /// lock-hold histograms, and the recent block traces. Reads only
    /// atomics and the short trace ring lock: **zero** node-lock
    /// acquisitions, which `telemetry_reads_take_zero_node_locks` pins.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// Seals a block at `now` (miner nodes only) and imports it locally.
    ///
    /// The node lock is held twice, briefly: once to snapshot the parent
    /// header, a COW state clone, and the pool handle; once to import the
    /// sealed block. Candidate ordering and execution run in between,
    /// unlocked — client submission keeps flowing into the pool shards
    /// while the block is being built.
    pub fn mine(&self, now: SimTime) -> Option<Block> {
        let (setup, parent, state, pool, contract, limits, exec_mode, isolation) = {
            let inner = self.lock();
            let setup = inner.config.miner.clone()?;
            (
                setup,
                inner.chain.head_block().header.clone(),
                inner.chain.head_state().clone(),
                inner.pool.clone(),
                inner.config.contract,
                inner.config.limits.clone(),
                inner.config.exec_mode,
                inner.config.isolation,
            )
        };
        let budget = setup.candidate_budget.unwrap_or(usize::MAX);
        let policy = effective_policy(&setup.policy, isolation, &self.telemetry);
        let (candidates, order_ns) = self.telemetry.time_ns(Phase::OrderCandidates, || {
            order_candidates_limited(&pool, &state.view(), &contract, &policy, budget)
        });
        let timestamp = now.max(parent.timestamp_ms + 1);
        let built = build_block_traced(
            &parent,
            &state,
            &candidates,
            setup.coinbase,
            timestamp,
            &limits,
            &exec_mode,
            &self.telemetry,
        );
        // Lock-free bookkeeping before re-locking: executor counters land
        // in the `exec.*` cells, the ordering span in the block's trace
        // (the store adds an `import`-role trace for the same number).
        self.exec_cells.absorb(&built.stats);
        self.telemetry.trace_block(BlockTrace {
            number: built.block.number(),
            role: "build",
            phase_ns: vec![(Phase::OrderCandidates, order_ns)],
        });
        self.import_mined(built)
    }

    /// The second lock of a mining pass: imports a block this node just
    /// sealed, adopting the builder's post-state and receipts
    /// ([`ChainStore::import_sealed`]) rather than replaying it. Shared by
    /// [`NodeHandle::mine`] and the pipelined miner so every self-import
    /// outcome — including the failure telemetry — is handled
    /// identically.
    pub(crate) fn import_mined(&self, built: BuiltBlock) -> Option<Block> {
        let block = built.block.clone();
        let mut inner = self.lock();
        match inner.chain.import_sealed(built) {
            Ok(ImportOutcome::ExtendedCanonical) | Ok(ImportOutcome::Reorged { .. }) => {
                Self::after_import(&mut inner, &block);
                Some(block)
            }
            // A gossip block imported while we were building can beat us
            // to the head: our block is then a side chain and its
            // transactions are NOT committed — they must stay pooled for
            // the next attempt (before the pool feed, building happened
            // under the node lock and this race could not exist).
            Ok(ImportOutcome::SideChain) | Ok(ImportOutcome::AlreadyKnown) => Some(block),
            // The sealed block is canonical in memory; only persistence
            // failed. The block stands — surface the fault separately.
            Err(ImportError::Store(_)) => {
                Self::after_import(&mut inner, &block);
                drop(inner);
                self.telemetry.counter("node.store_failed").inc();
                Some(block)
            }
            // A block this node sealed failing its own import is a real
            // fault (a reorg mid-build can orphan the parent; anything
            // else is a bug) — count it by kind instead of swallowing it.
            Err(error) => {
                drop(inner);
                self.telemetry.counter("node.self_import_failed").inc();
                let kind = match error {
                    ImportError::UnknownParent => "node.self_import_failed.unknown_parent",
                    ImportError::Invalid(_) => "node.self_import_failed.invalid",
                    ImportError::Store(_) => "node.self_import_failed.store",
                };
                self.telemetry.counter(kind).inc();
                None
            }
        }
    }

    /// Looks up a block by hash (canonical or side-chain), for sync
    /// replies.
    pub fn block_by_hash(&self, hash: &H256) -> Option<Block> {
        self.lock().chain.get(hash).map(|stored| stored.block.clone())
    }

    /// Runs `f` with the locked inner state (post-run inspection).
    pub fn with_inner<T>(&self, f: impl FnOnce(&NodeInner) -> T) -> T {
        f(&self.lock())
    }

    /// Runs `f` with mutable access to the inner state — for wiring beyond
    /// the standard configuration, e.g. enabling RAA for additional
    /// contracts (one HMS provider can serve many markets).
    pub fn with_inner_mut<T>(&self, f: impl FnOnce(&mut NodeInner) -> T) -> T {
        f(&mut self.lock())
    }

    /// Where a submitted transaction stands from this node's view — what a
    /// client polls to decide whether to retry (the abort-rate workload).
    pub fn tx_commit_status(&self, tx_hash: &H256, success_topic: H256) -> TxCommitStatus {
        let inner = self.lock();
        match inner.chain.find_receipt(tx_hash) {
            Some((stored, receipt)) => {
                if receipt.has_event(success_topic) {
                    TxCommitStatus::Succeeded { block: stored.block.number() }
                } else {
                    TxCommitStatus::NoEffect { block: stored.block.number() }
                }
            }
            None => TxCommitStatus::Pending,
        }
    }
}

/// Commit status of a transaction as observed by a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxCommitStatus {
    /// Not yet in a canonical block (pooled, in flight, or dropped).
    Pending,
    /// Committed and the contract emitted the success event.
    Succeeded {
        /// Block number it committed in.
        block: u64,
    },
    /// Committed but made no state change — the paper's failed
    /// transaction (§III-A): it occupies block space to no effect.
    NoEffect {
        /// Block number it committed in.
        block: u64,
    },
}

impl std::fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("NodeHandle")
            .field("kind", &inner.config.kind)
            .field("head", &inner.chain.head_number())
            .field("pool", &inner.pool.len())
            .finish()
    }
}

/// The actor wrapping a node for the discrete-event simulation.
pub struct NodeActor {
    /// The node itself (shared with attached clients).
    pub handle: NodeHandle,
    /// Gossip peers (actor ids of other nodes).
    pub peers: Vec<ActorId>,
}

impl Actor<Msg> for NodeActor {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::SubmitTx(tx) | Msg::NewTransaction(tx) => {
                if self.handle.receive_tx(tx.clone(), ctx.now()) {
                    for &peer in &self.peers {
                        ctx.send_to(peer, Msg::NewTransaction(tx.clone()));
                    }
                }
            }
            Msg::NewBlock(block) => {
                match self.handle.receive_block(block.clone()) {
                    BlockReceipt::Imported => {
                        for &peer in &self.peers {
                            ctx.send_to(peer, Msg::NewBlock(block.clone()));
                        }
                    }
                    BlockReceipt::Orphaned => {
                        // Ancestor fetch: ask the network for the missing
                        // parent; each reply walks one block further back
                        // until the branches reconnect (partition heal).
                        let request =
                            Msg::GetBlock { hash: block.header.parent_hash, requester: ctx.self_id() };
                        for &peer in &self.peers {
                            ctx.send_to(peer, request.clone());
                        }
                    }
                    BlockReceipt::Known | BlockReceipt::Rejected => {}
                }
            }
            Msg::GetBlock { hash, requester } => {
                if let Some(block) = self.handle.block_by_hash(&hash) {
                    ctx.send_to(requester, Msg::NewBlock(block));
                }
            }
            Msg::MineTick => {
                if let Some(block) = self.handle.mine(ctx.now()) {
                    for &peer in &self.peers {
                        ctx.send_to(peer, Msg::NewBlock(block.clone()));
                    }
                }
                let schedule = self
                    .handle
                    .with_inner(|inner| inner.config.miner.as_ref().map(|setup| setup.schedule.clone()));
                if let Some(schedule) = schedule {
                    let delay = schedule.next_delay(ctx.rng());
                    ctx.wake_self(delay, Msg::MineTick);
                }
            }
            Msg::Announce { .. } | Msg::SyncTick => {
                // Anti-entropy belongs to the topology-driven
                // [`crate::netnode::NetNode`]; this explicit-peer actor
                // relies on reliable-enough flood gossip.
            }
            Msg::WorkloadTick(_) => {
                // Workload ticks belong to driver actors.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{default_contract_address, sereth_code, sereth_genesis_slots, ContractForm};
    use sereth_chain::genesis::GenesisBuilder;
    use sereth_core::mark::genesis_mark;
    use sereth_crypto::sig::SecretKey;
    use sereth_types::u256::U256;

    fn test_genesis(owner: &SecretKey) -> Genesis {
        let contract = default_contract_address();
        GenesisBuilder::new()
            .fund(owner.address(), U256::from(1_000_000_000u64))
            .contract_with_storage(
                contract,
                sereth_code(ContractForm::Native),
                sereth_genesis_slots(&owner.address(), H256::from_low_u64(50)),
            )
            .build()
    }

    fn node(kind: ClientKind, owner: &SecretKey, miner: bool) -> NodeHandle {
        node_at(kind, owner, miner, IsolationLevel::ReadUncommitted)
    }

    fn node_at(kind: ClientKind, owner: &SecretKey, miner: bool, level: IsolationLevel) -> NodeHandle {
        let mut builder = NodeConfig::builder().kind(kind).isolation(level);
        if miner {
            builder = builder.mining(MinerPolicy::Standard).coinbase(Address::from_low_u64(0xc01));
        }
        NodeHandle::new(test_genesis(owner), builder.build())
    }

    fn set_tx(owner: &SecretKey, nonce: u64, prev: H256, value: u64) -> Transaction {
        use sereth_core::fpv::{Flag, Fpv};
        use sereth_types::transaction::TxPayload;
        Transaction::sign(
            TxPayload {
                nonce,
                gas_price: 1,
                gas_limit: 200_000,
                to: Some(default_contract_address()),
                value: U256::ZERO,
                input: Fpv::new(
                    if nonce == 0 { Flag::Head } else { Flag::Success },
                    prev,
                    H256::from_low_u64(value),
                )
                .to_calldata(set_selector()),
            },
            owner,
        )
    }

    #[test]
    fn geth_node_query_view_echoes_zeros() {
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Geth, &owner, false);
        let (mark, value) = node.query_view(owner.address()).unwrap();
        assert_eq!(mark, H256::ZERO);
        assert_eq!(value, H256::ZERO);
        // The standard client must fall back to committed state.
        let (cmark, cvalue) = node.committed_amv();
        assert_eq!(cmark, genesis_mark());
        assert_eq!(cvalue, H256::from_low_u64(50));
    }

    #[test]
    fn sereth_node_query_view_serves_committed_when_pool_empty() {
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Sereth, &owner, false);
        let (mark, value) = node.query_view(owner.address()).unwrap();
        assert_eq!(mark, genesis_mark());
        assert_eq!(value, H256::from_low_u64(50));
    }

    #[test]
    fn sereth_node_query_view_tracks_pending_sets() {
        use sereth_core::mark::compute_mark;
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Sereth, &owner, false);
        let tx = set_tx(&owner, 0, genesis_mark(), 75);
        assert!(node.receive_tx(tx, 100));
        let (mark, value) = node.query_view(owner.address()).unwrap();
        assert_eq!(mark, compute_mark(&genesis_mark(), &H256::from_low_u64(75)));
        assert_eq!(value, H256::from_low_u64(75));
    }

    #[test]
    fn query_view_acquires_the_node_lock_exactly_once() {
        // Regression for the historical double-lock: `query_view` used to
        // lock once to read `config.contract` and then again inside
        // `query_view_for`. Both entry points must now cost exactly one
        // handle-lock round-trip per query, on both client kinds. (On a
        // Sereth node the RAA provider's data source takes its own locks
        // via a separate path; the handle's discipline is what is pinned
        // here.)
        let owner = SecretKey::from_label(1);
        for kind in [ClientKind::Geth, ClientKind::Sereth] {
            let node = node(kind, &owner, false);
            let before = node.lock_acquisitions();
            node.query_view(owner.address()).unwrap();
            assert_eq!(node.lock_acquisitions() - before, 1, "query_view on {kind:?}");

            let before = node.lock_acquisitions();
            node.query_view_for(default_contract_address(), owner.address()).unwrap();
            assert_eq!(node.lock_acquisitions() - before, 1, "query_view_for on {kind:?}");
        }
    }

    #[test]
    fn committed_reads_cost_one_lock_each() {
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Geth, &owner, false);
        let before = node.lock_acquisitions();
        node.committed_amv();
        node.account_nonce(&owner.address());
        node.head_state_view();
        assert_eq!(node.lock_acquisitions() - before, 3, "one acquisition per read API call");
    }

    #[test]
    fn state_readers_cost_one_lock_and_pin_their_epoch() {
        // The unified `StateReader` surface must keep the PR 8 lock
        // discipline: one handle-lock round-trip per read transaction,
        // and the returned view pins its epoch so durable-backend GC can
        // never reclaim the snapshot under the reader.
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Geth, &owner, true);
        node.receive_tx(set_tx(&owner, 0, genesis_mark(), 75), 100);
        node.mine(15_000).expect("miner seals");
        assert_eq!(node.head_number(), 1);

        let before = node.lock_acquisitions();
        let reader = node.state_reader();
        assert_eq!(node.lock_acquisitions() - before, 1, "state_reader is one lock");
        assert_eq!(reader.height(), 1);
        assert_eq!(reader.view().pinned_epoch(), Some(1), "head reader pins the head epoch");

        let before = node.lock_acquisitions();
        let at_genesis = node.state_reader_at(0).expect("genesis is canonical");
        assert_eq!(node.lock_acquisitions() - before, 1, "state_reader_at is one lock");
        assert_eq!(at_genesis.height(), 0);
        assert_eq!(at_genesis.view().pinned_epoch(), Some(0), "historical reader pins its epoch");
        assert_eq!(at_genesis.view().nonce_of(&owner.address()), 0, "reader is frozen at its epoch");
    }

    #[test]
    fn held_views_stay_frozen_while_the_node_seals() {
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Geth, &owner, true);
        let (height, view) = node.head_state_view();
        assert_eq!(height, 0);
        let root_at_genesis = view.state_root();

        node.receive_tx(set_tx(&owner, 0, genesis_mark(), 75), 100);
        node.mine(15_000).expect("miner seals");
        assert_eq!(node.head_number(), 1);

        // The held view still shows genesis; a fresh view shows block 1.
        assert_eq!(view.state_root(), root_at_genesis);
        assert_eq!(view.nonce_of(&owner.address()), 0);
        let (new_height, new_view) = node.head_state_view();
        assert_eq!(new_height, 1);
        assert_eq!(new_view.nonce_of(&owner.address()), 1);
        assert_ne!(new_view.state_root(), root_at_genesis);
    }

    #[test]
    fn duplicate_tx_not_accepted_twice() {
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Geth, &owner, false);
        let tx = set_tx(&owner, 0, genesis_mark(), 75);
        assert!(node.receive_tx(tx.clone(), 100));
        assert!(!node.receive_tx(tx, 200), "gossip dedup");
    }

    #[test]
    fn mining_commits_pool_transactions() {
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Geth, &owner, true);
        let tx = set_tx(&owner, 0, genesis_mark(), 75);
        node.receive_tx(tx, 100);
        assert_eq!(node.pool_len(), 1);
        let block = node.mine(15_000).expect("miner node seals");
        assert_eq!(block.transactions.len(), 1);
        assert_eq!(node.head_number(), 1);
        assert_eq!(node.pool_len(), 0, "committed txs leave the pool");
        // The committed view moved.
        let (_, value) = node.committed_amv();
        assert_eq!(value, H256::from_low_u64(75));
    }

    #[test]
    fn non_miner_mine_is_none() {
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Geth, &owner, false);
        assert!(node.mine(1_000).is_none());
    }

    #[test]
    fn self_import_failure_is_counted_not_swallowed() {
        // Regression: `mine()`'s import tail used to map `Err(_)` to
        // `None` silently. Force the failure by handing `import_mined` a
        // block sealed on a *different genesis* (its parent hash is
        // unknown here) and pin the failure telemetry.
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Geth, &owner, true);
        let foreign_owner = SecretKey::from_label(2);
        let foreign =
            GenesisBuilder::new().fund(foreign_owner.address(), U256::from(1_000_000_000u64)).build();
        let alien = sereth_chain::builder::build_block(
            &foreign.block.header,
            &foreign.state,
            Vec::new(),
            Address::from_low_u64(0xc01),
            15_000,
            &BlockLimits::default(),
        );
        assert!(node.import_mined(alien).is_none());
        let snapshot = node.telemetry_snapshot();
        assert_eq!(snapshot.counters.get("node.self_import_failed").copied(), Some(1));
        assert_eq!(snapshot.counters.get("node.self_import_failed.unknown_parent").copied(), Some(1));
        assert_eq!(snapshot.counters.get("node.self_import_failed.invalid").copied(), None);
        // A successful mine is unaffected.
        assert!(node.mine(15_000).is_some());
        assert_eq!(node.telemetry_snapshot().counters.get("node.self_import_failed").copied(), Some(1));
    }

    #[test]
    fn blocks_propagate_between_nodes() {
        let owner = SecretKey::from_label(1);
        let miner = node(ClientKind::Geth, &owner, true);
        let follower = node(ClientKind::Geth, &owner, false);
        let tx = set_tx(&owner, 0, genesis_mark(), 75);
        miner.receive_tx(tx.clone(), 100);
        follower.receive_tx(tx, 120);
        let block = miner.mine(15_000).unwrap();
        assert_eq!(follower.receive_block(block.clone()), BlockReceipt::Imported);
        assert_eq!(follower.receive_block(block), BlockReceipt::Known);
        assert_eq!(follower.head_number(), 1);
        assert_eq!(follower.pool_len(), 0, "follower pool cleaned after import");
    }

    #[test]
    fn orphan_blocks_import_after_parent_arrives() {
        let owner = SecretKey::from_label(1);
        let miner = node(ClientKind::Geth, &owner, true);
        let follower = node(ClientKind::Geth, &owner, false);
        let b1 = miner.mine(15_000).unwrap();
        let b2 = miner.mine(30_000).unwrap();
        assert_eq!(follower.receive_block(b2), BlockReceipt::Orphaned);
        assert_eq!(follower.head_number(), 0);
        assert_eq!(follower.receive_block(b1), BlockReceipt::Imported);
        assert_eq!(follower.head_number(), 2, "orphan retried after parent");
    }

    #[test]
    fn telemetry_reads_take_zero_node_locks() {
        // Satellite of the telemetry layer: metrics consumers must never
        // contend with the miner. Every stats/snapshot read below goes
        // through registry atomics, so the node-lock counter must not
        // move at all.
        let owner = SecretKey::from_label(1);
        let peer = node(ClientKind::Sereth, &owner, true);
        let node = node(ClientKind::Sereth, &owner, true);
        assert!(node.receive_tx(set_tx(&owner, 0, genesis_mark(), 75), 100));
        node.mine(15_000).expect("miner seals");
        // Self-sealed blocks import without replay; a peer's block (here
        // a side-chain sibling) is what takes the `validate` phase.
        let foreign = peer.mine(16_000).expect("peer seals");
        assert_eq!(node.receive_block(foreign), BlockReceipt::Imported);

        let before = node.lock_acquisitions();
        let exec = node.exec_stats();
        let validation = node.validation_stats();
        let snapshot = node.telemetry_snapshot();
        assert_eq!(node.lock_acquisitions(), before, "metrics reads must not take the node lock");

        // The snapshot is the unified view: the same totals the typed
        // accessors report, plus the phase histograms.
        assert_eq!(snapshot.counters["exec.sequential_txs"], exec.sequential_txs);
        assert_eq!(snapshot.counters["validation.waves"], validation.waves);
        assert!(snapshot.histograms["phase.receive_tx"].count() >= 1);
        assert!(snapshot.histograms["phase.admission"].count() >= 1);
        assert!(snapshot.histograms["phase.order_candidates"].count() >= 1);
        assert!(snapshot.histograms["phase.seal"].count() >= 1);
        assert!(snapshot.histograms["phase.import"].count() >= 1);
        assert!(snapshot.histograms["phase.validate"].count() >= 1);
        assert!(snapshot.histograms["node.lock_hold"].count() >= 1);
        let roles: Vec<&str> = snapshot.blocks.iter().map(|t| t.role).collect();
        assert!(roles.contains(&"build") && roles.contains(&"import"), "traces: {roles:?}");
    }

    #[test]
    fn disabled_telemetry_records_and_costs_nothing() {
        let owner = SecretKey::from_label(1);
        let node = NodeHandle::new(
            test_genesis(&owner),
            NodeConfig::miner(default_contract_address(), MinerPolicy::Standard)
                .coinbase(Address::from_low_u64(0xc01))
                .telemetry_enabled(false)
                .build(),
        );
        assert!(node.receive_tx(set_tx(&owner, 0, genesis_mark(), 75), 100));
        node.mine(15_000).expect("miner seals");
        let snapshot = node.telemetry_snapshot();
        assert!(snapshot.counters.is_empty(), "disabled hubs register nothing: {snapshot:?}");
        assert!(snapshot.histograms.is_empty());
        assert!(snapshot.blocks.is_empty());
        assert_eq!(node.exec_stats(), ExecStats::default(), "stats views read zero when disabled");
    }

    #[test]
    fn builder_presets_cover_the_ladder() {
        let contract = Address::from_low_u64(0xfeed);
        let geth = NodeConfig::geth(contract).build();
        assert_eq!(geth.kind, ClientKind::Geth);
        assert_eq!(geth.contract, contract);
        assert!(geth.miner.is_none());
        assert_eq!(geth.isolation, IsolationLevel::ReadUncommitted, "the default is the paper's mode");

        let sereth = NodeConfig::sereth(contract).isolation(IsolationLevel::Sequential).build();
        assert_eq!(sereth.kind, ClientKind::Sereth);
        assert_eq!(sereth.isolation, IsolationLevel::Sequential);

        let miner = NodeConfig::miner(contract, MinerPolicy::Semantic(HmsConfig::default()))
            .coinbase(Address::from_low_u64(0xc0de))
            .candidate_budget(Some(64))
            .max_txs(Some(10))
            .build();
        assert_eq!(miner.kind, ClientKind::Sereth, "semantic mining implies the modified client");
        let setup = miner.miner.expect("preset installs a miner");
        assert!(matches!(setup.policy, MinerPolicy::Semantic(_)));
        assert_eq!(setup.coinbase, Address::from_low_u64(0xc0de));
        assert_eq!(setup.candidate_budget, Some(64));
        assert_eq!(miner.limits.max_txs, Some(10));

        let standard = NodeConfig::miner(contract, MinerPolicy::Standard).build();
        assert_eq!(standard.kind, ClientKind::Geth);
    }

    #[test]
    fn read_committed_queries_never_observe_a_pending_pool_write() {
        // The ladder's regression guarantee: a Sereth node configured at
        // READ COMMITTED answers queries from committed state only, even
        // with a fresher write sitting in its pool.
        let owner = SecretKey::from_label(1);
        let node = node_at(ClientKind::Sereth, &owner, false, IsolationLevel::ReadCommitted);
        assert!(node.receive_tx(set_tx(&owner, 0, genesis_mark(), 75), 100));
        assert_eq!(node.pool_len(), 1, "the write is pending");
        let (mark, value) = node.query_view(owner.address()).unwrap();
        assert_eq!(mark, genesis_mark(), "no speculative mark leaks through");
        assert_eq!(value, H256::from_low_u64(50), "the committed price, not the pending 75");
        // And the per-level counter attributed the read.
        let counters = node.telemetry_snapshot().counters;
        assert_eq!(counters.get("iso.reads.read_committed").copied(), Some(1));
        assert_eq!(counters.get("iso.reads.read_uncommitted").copied(), None);
    }

    #[test]
    fn sequential_queries_pin_to_the_last_import() {
        use sereth_core::mark::compute_mark;
        let owner = SecretKey::from_label(1);
        let node = node_at(ClientKind::Sereth, &owner, true, IsolationLevel::Sequential);
        assert_eq!(node.pinned_height(), 0);
        assert!(node.receive_tx(set_tx(&owner, 0, genesis_mark(), 75), 100));
        let observation = node.query_observed(owner.address()).unwrap();
        assert_eq!(observation.level, IsolationLevel::Sequential);
        assert_eq!(observation.height, 0, "pinned at genesis until an import moves it");
        assert_eq!(observation.value, H256::from_low_u64(50));

        node.mine(15_000).expect("miner seals");
        assert_eq!(node.pinned_height(), 1, "the import advanced the pin");
        let observation = node.query_observed(owner.address()).unwrap();
        assert_eq!(observation.height, 1);
        assert_eq!(observation.mark, compute_mark(&genesis_mark(), &H256::from_low_u64(75)));
        assert_eq!(observation.value, H256::from_low_u64(75));
        assert_eq!(
            node.telemetry_snapshot().counters.get("iso.reads.sequential").copied(),
            Some(2),
            "both pinned reads counted"
        );
    }

    #[test]
    fn every_isolation_level_keeps_the_single_lock_read_discipline() {
        let owner = SecretKey::from_label(1);
        for level in IsolationLevel::ALL {
            for kind in [ClientKind::Geth, ClientKind::Sereth] {
                let node = node_at(kind, &owner, false, level);
                let before = node.lock_acquisitions();
                node.query_view(owner.address()).unwrap();
                assert_eq!(node.lock_acquisitions() - before, 1, "query_view at {level} on {kind:?}");
                let before = node.lock_acquisitions();
                node.committed_observed();
                assert_eq!(node.lock_acquisitions() - before, 1, "committed_observed at {level}");
            }
        }
    }

    #[test]
    fn semantic_ordering_degrades_to_standard_above_read_uncommitted() {
        let owner = SecretKey::from_label(1);
        let contract = default_contract_address();
        for level in [IsolationLevel::ReadCommitted, IsolationLevel::Sequential] {
            let node = NodeHandle::new(
                test_genesis(&owner),
                NodeConfig::miner(contract, MinerPolicy::Semantic(HmsConfig::default()))
                    .coinbase(Address::from_low_u64(0xc01))
                    .isolation(level)
                    .build(),
            );
            assert!(node.receive_tx(set_tx(&owner, 0, genesis_mark(), 75), 100));
            node.mine(15_000).expect("miner seals");
            let counters = node.telemetry_snapshot().counters;
            assert_eq!(counters.get("iso.policy_degraded").copied(), Some(1), "degraded at {level}");
        }
        // At READ UNCOMMITTED the semantic policy runs undegraded.
        let node = NodeHandle::new(
            test_genesis(&owner),
            NodeConfig::miner(contract, MinerPolicy::Semantic(HmsConfig::default()))
                .coinbase(Address::from_low_u64(0xc01))
                .build(),
        );
        assert!(node.receive_tx(set_tx(&owner, 0, genesis_mark(), 75), 100));
        node.mine(15_000).expect("miner seals");
        assert_eq!(node.telemetry_snapshot().counters.get("iso.policy_degraded").copied(), None);
    }

    #[test]
    fn tampered_blocks_are_rejected() {
        use bytes::Bytes;
        let owner = SecretKey::from_label(1);
        let miner = node(ClientKind::Geth, &owner, true);
        let follower = node(ClientKind::Geth, &owner, false);
        let tx = set_tx(&owner, 0, genesis_mark(), 75);
        miner.receive_tx(tx, 100);
        let mut block = miner.mine(15_000).unwrap();
        // RAA-style tampering of the signed calldata.
        block.transactions[0] = block.transactions[0].with_tampered_input(Bytes::from_static(b"oops"));
        block.header.tx_root = Block::compute_tx_root(&block.transactions);
        assert_eq!(follower.receive_block(block), BlockReceipt::Rejected);
        assert_eq!(follower.head_number(), 0);
    }
}
