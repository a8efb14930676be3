//! Cross-block pipelined mining: overlap the next block's speculation
//! with the current block's seal/import.
//!
//! [`NodeHandle::mine`] is strictly serial across blocks — order, execute,
//! seal, import, repeat — so the wave executor idles during every import
//! and the import path idles during every speculation. The
//! [`PipelinedMiner`] overlaps them: while block `N`'s import holds the
//! node lock, a scoped thread orders block `N + 1`'s candidates against
//! `N`'s post-state and prespeculates them into a
//! [`PipelineSink`]; the next `mine` call consumes the sink if its
//! prediction held.
//!
//! **Prediction** = (parent hash, pre-state, block env) of the next block.
//! **Validation** on the next `mine`:
//!
//! * parent hash matches → the prediction held; the pre-states are
//!   value-identical (both commit to the imported block's state root), so
//!   only a mispredicted timestamp/number can invalidate — and only for
//!   outcomes that actually read them (the VM's env-read tracking).
//! * parent hash differs (a gossip block won the race, a reorg moved the
//!   head, or our own import failed) → *replan*: the dirty-key seed
//!   becomes the value diff between predicted and actual pre-state (plus
//!   mismatched env keys), so only candidates that touched changed keys
//!   re-execute — the rest of the speculation survives even a lost race.
//!
//! **Degradation**: two consecutive misses fall the miner back to the
//! serial twin ([`NodeHandle::mine`]'s exact build path) for `backoff`
//! blocks, doubling up to 32 — under gossip pressure that always beats
//! us, pipelining is pure waste, the same adaptive logic the wave
//! executor applies to conflict-heavy windows.
//!
//! The sealed blocks are byte-identical to what the serial loop produces
//! under every race (`pipelined_mining` proves it property-style), and
//! the node lock is still acquired exactly twice per sealed block — the
//! prespeculation thread touches only the pool's own shard locks and an
//! owned state snapshot.

use std::time::Instant;

use parking_lot::Mutex;
use sereth_chain::builder::{build_block_pipelined, build_block_traced};
use sereth_chain::executor::BlockEnv;
use sereth_chain::parallel::{ExecMode, PipelineSink};
use sereth_chain::state::StateDb;
use sereth_crypto::hash::H256;
use sereth_telemetry::{BlockTrace, Phase};
use sereth_types::block::{Block, BlockHeader};
use sereth_types::transaction::Transaction;
use sereth_types::SimTime;
use sereth_vm::access::AccessKey;

use crate::miner::{order_candidates_limited, MinerPolicy};
use crate::node::{effective_policy, BlockSchedule, NodeHandle};

/// Consecutive prediction misses before degrading to the serial twin.
const DEGRADE_AFTER_MISSES: u32 = 2;
/// Longest degradation stretch (blocks), like the wave executor's probe
/// backoff cap.
const MAX_BACKOFF: u32 = 32;

/// One parked prediction: what the previous `mine` believed the next
/// block would be built on.
struct Prespec {
    /// Hash of the block we sealed — the predicted parent.
    parent_hash: H256,
    /// Its post-state — the predicted pre-state of the next block.
    state: StateDb,
    /// The predicted block env the outcomes executed under.
    env: BlockEnv,
    /// The prespeculated outcomes.
    sink: PipelineSink,
}

/// Miss/degradation bookkeeping, behind the miner's own mutex (never the
/// node lock).
struct PipeState {
    prespec: Option<Prespec>,
    consecutive_misses: u32,
    backoff: u32,
    degraded_remaining: u32,
}

/// A cross-block pipelining wrapper around a mining [`NodeHandle`]. Drive
/// it instead of [`NodeHandle::mine`]; everything else about the node
/// (submission, gossip, queries) is untouched.
pub struct PipelinedMiner {
    node: NodeHandle,
    state: Mutex<PipeState>,
}

impl PipelinedMiner {
    /// Wraps `node` (which should have a miner configured, like any node
    /// driven through `mine`).
    pub fn new(node: NodeHandle) -> Self {
        Self {
            node,
            state: Mutex::new(PipeState {
                prespec: None,
                consecutive_misses: 0,
                backoff: 1,
                degraded_remaining: 0,
            }),
        }
    }

    /// The wrapped handle.
    pub fn node(&self) -> &NodeHandle {
        &self.node
    }

    /// Seals a block at `now` and imports it, consuming the previous
    /// call's prespeculation when its prediction held and parking a new
    /// one while the import runs. Returns what [`NodeHandle::mine`]
    /// returns, and seals the byte-identical block.
    pub fn mine(&self, now: SimTime) -> Option<Block> {
        // Lock #1: the same snapshot `mine()` takes.
        let (setup, parent, state, pool, contract, limits, exec_mode, isolation) = {
            let inner = self.node.lock();
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
        let telemetry = self.node.telemetry().clone();
        let budget = setup.candidate_budget.unwrap_or(usize::MAX);
        // Same isolation degradation as the serial twin: the policy is
        // resolved once per mine call and shared with the
        // prespeculation pass, so both order identically.
        let policy = effective_policy(&setup.policy, isolation, &telemetry);
        // Candidates are always ordered fresh against the *actual* head
        // state — ordering is never speculated, so a pool that churned
        // (or a head that moved) during the previous import changes
        // nothing vs. the serial twin.
        let (candidates, order_ns) = telemetry.time_ns(Phase::OrderCandidates, || {
            order_candidates_limited(&pool, &state.view(), &contract, &policy, budget)
        });
        let timestamp = now.max(parent.timestamp_ms + 1);
        let threads = match exec_mode {
            ExecMode::Parallel { threads } => threads,
            ExecMode::Sequential => 1,
        };

        // Prediction validation, against the parked prespec.
        let (mut pipeline, degraded) = {
            let mut pipe = self.state.lock();
            if pipe.degraded_remaining > 0 {
                // A degraded block abandons pipelining outright: any
                // parked prespec is dropped unvalidated and none is made.
                pipe.degraded_remaining -= 1;
                pipe.prespec = None;
                telemetry.counter("pipeline.predictions_abandoned").inc();
                (None, pipe.degraded_remaining > 0)
            } else {
                match pipe.prespec.take() {
                    Some(prespec) if prespec.parent_hash == parent.hash() => {
                        // Held: pre-states are value-identical (same state
                        // root); only env mispredictions can invalidate.
                        telemetry.counter("pipeline.predictions_held").inc();
                        pipe.consecutive_misses = 0;
                        pipe.backoff = 1;
                        let mut sink = prespec.sink;
                        if prespec.env.timestamp_ms != timestamp {
                            sink.invalidate([AccessKey::Timestamp]);
                        }
                        if prespec.env.number != parent.number + 1 {
                            sink.invalidate([AccessKey::Number]);
                        }
                        (Some(sink), false)
                    }
                    Some(prespec) => {
                        // Missed: a gossip block or reorg moved the head
                        // (or our own import failed). Replan — keep every
                        // outcome whose reads miss the pre-state diff.
                        telemetry.counter("pipeline.predictions_replanned").inc();
                        pipe.consecutive_misses += 1;
                        let degrade = pipe.consecutive_misses >= DEGRADE_AFTER_MISSES;
                        if degrade {
                            pipe.degraded_remaining = pipe.backoff;
                            pipe.backoff = (pipe.backoff * 2).min(MAX_BACKOFF);
                            pipe.consecutive_misses = 0;
                        }
                        let mut sink = prespec.sink;
                        sink.invalidate(state.view().diff_access_keys(&prespec.state.view()));
                        if prespec.env.timestamp_ms != timestamp {
                            sink.invalidate([AccessKey::Timestamp]);
                        }
                        if prespec.env.number != parent.number + 1 {
                            sink.invalidate([AccessKey::Number]);
                        }
                        (Some(sink), degrade)
                    }
                    None => (None, false),
                }
            }
        };

        let built = match pipeline.as_mut() {
            Some(sink) => build_block_pipelined(
                &parent,
                &state,
                &candidates,
                setup.coinbase,
                timestamp,
                &limits,
                threads,
                sink,
                &telemetry,
            ),
            // No prespec parked (first block, or degraded): the serial
            // twin's exact build path.
            None => build_block_traced(
                &parent,
                &state,
                &candidates,
                setup.coinbase,
                timestamp,
                &limits,
                &exec_mode,
                &telemetry,
            ),
        };
        self.node.exec_cells.absorb(&built.stats);
        if let Some(sink) = &pipeline {
            telemetry.counter("pipeline.prefed_reused").add(sink.reused());
            telemetry.counter("pipeline.prefed_invalidated").add(sink.invalidated());
        }
        telemetry.trace_block(BlockTrace {
            number: built.block.number(),
            role: "build",
            phase_ns: vec![(Phase::OrderCandidates, order_ns)],
        });

        // The overlap: lock #2 (import) on this thread, the next block's
        // prespeculation on a scoped sibling. The sibling touches only
        // the pool's internal locks and owned state — never the node
        // lock, so the two-acquisition discipline is preserved. The
        // import adopts the built post-state; the sibling gets an O(1)
        // copy-on-write clone of it (neither side writes to it).
        let post_state = built.post_state.clone();
        let sealed = built.block.header.clone();
        let (imported, prespec) = std::thread::scope(|scope| {
            let speculate = (!degraded).then(|| {
                scope.spawn(|| {
                    let started = Instant::now();
                    let prespec = prespeculate_next(
                        &pool, post_state, &sealed, &setup, &policy, &contract, &limits, budget, threads, now,
                    );
                    (prespec, started.elapsed().as_nanos() as u64)
                })
            });
            let started = Instant::now();
            let imported = self.node.import_mined(built);
            let import_ns = started.elapsed().as_nanos() as u64;
            let prespec = speculate.map(|handle| handle.join().expect("prespeculation thread"));
            if let Some((_, spec_ns)) = &prespec {
                // How much work actually ran concurrently.
                telemetry.histogram("pipeline.overlap").record_ns(import_ns.min(*spec_ns));
            }
            (imported, prespec)
        });
        if let Some((prespec, _)) = prespec {
            self.state.lock().prespec = Some(prespec);
        }
        imported
    }
}

/// Builds the prediction for the block after the one headed `sealed`:
/// candidates ordered against its post-state, speculated under its
/// predicted env.
#[allow(clippy::too_many_arguments)] // one-caller helper splitting the scoped thread body out of mine()
fn prespeculate_next(
    pool: &sereth_chain::txpool::TxPool,
    post_state: StateDb,
    sealed: &BlockHeader,
    setup: &crate::node::MinerSetup,
    policy: &MinerPolicy,
    contract: &sereth_crypto::address::Address,
    limits: &sereth_chain::builder::BlockLimits,
    budget: usize,
    threads: usize,
    now: SimTime,
) -> Prespec {
    // The sealed block's transactions are still pooled (the import that
    // prunes them is racing us); ordering against the post-state nonces
    // skips them exactly — the stale-prefix exactness of
    // `ready_by_price_limited`.
    let candidates: Vec<Transaction> =
        order_candidates_limited(pool, &post_state.view(), contract, policy, budget);
    let predicted_timestamp = match setup.schedule {
        // The sim drives fixed-schedule miners on exact ticks.
        BlockSchedule::Fixed(interval) => (now + interval).max(sealed.timestamp_ms + 1),
        // Memoryless schedules are unpredictable; the floor is the best
        // guess, and only TIMESTAMP-reading outcomes pay for a miss.
        BlockSchedule::Exponential { .. } => sealed.timestamp_ms + 1,
    };
    let env = BlockEnv {
        number: sealed.number + 1,
        timestamp_ms: predicted_timestamp,
        gas_limit: limits.gas_limit,
        miner: setup.coinbase,
    };
    let sink = PipelineSink::prespeculate(&post_state, &env, &candidates, threads);
    Prespec { parent_hash: sealed.hash(), state: post_state, env, sink }
}
