//! EXEC-PAR: block execution latency, sequential vs the conflict-aware
//! parallel executor, across block sizes and conflict ratios.
//!
//! Each point builds the same candidate list twice on the same parent
//! state — `build_block` (sequential baseline) and `build_block_with_mode`
//! with `ExecMode::Parallel` — asserts the sealed blocks are identical,
//! and reports mean wall-clock per build. The workload is `size` contract
//! calls from distinct senders; a `conflict_pct`% subset (spread evenly
//! through the list) hits one shared counter contract, the rest each hit
//! their own — so 0 % is embarrassingly parallel and 100 % is the
//! adversarial case the adaptive sequential degradation must absorb.
//!
//! Prints a markdown table and writes the `BENCH_exec.json` artifact
//! (conflict-free sweep) for CI upload. Knobs (env): `EXEC_TXS` (comma
//! list of block sizes; default `64,256,512`), `EXEC_CONFLICTS` (percent
//! list; default `0,50,100`), `EXEC_THREADS` (4), `EXEC_REPS` (builds per
//! measurement; default 3), `EXEC_MIN_SPEEDUP` (if > 0, exit nonzero
//! unless parallel beats sequential by this factor at the largest
//! conflict-free size — the CI gate), `EXEC_MAX_SLOWDOWN` (if > 0, exit
//! nonzero if the 100 % point is more than this factor slower than
//! sequential — the graceful-degradation gate).
//!
//! After the table it measures one padded row, never gated: the largest
//! conflict-free size again over a genesis padded with
//! `IDLE_ACCOUNTS` (10^5) idle accounts, nodebench's `transfer_wide`
//! state size. The artifact carries it in its config (`idle_*` keys).

use std::time::{Duration, Instant};

use sereth_bench::exec_fixture::{candidates, fixture, miner, IDLE_ACCOUNTS};
use sereth_bench::{env_list_or, env_or, write_bench_artifact, BenchPoint};
use sereth_chain::builder::{build_block, build_block_with_mode, BlockLimits};
use sereth_chain::parallel::ExecMode;

/// Sender-key label base and contract address base (distinct from
/// VAL-PAR's, so the two benches' fixtures stay disjoint).
const LABELS: u64 = 20_000;
const CONTRACTS: u64 = 0xE0_0000;

struct Measured {
    sequential: Duration,
    parallel: Duration,
    speedup: f64,
}

fn measure(size: u64, conflict_pct: u64, idle: u64, threads: usize, reps: usize) -> Measured {
    let (parent, state, keys) = fixture(LABELS, CONTRACTS, size, idle);
    let txs = candidates(&keys, CONTRACTS, conflict_pct);
    let miner = miner();
    let limits = BlockLimits { gas_limit: u64::MAX / 2, max_txs: None };
    let mode = ExecMode::Parallel { threads };

    // Sanity before timing: the two modes seal the same block.
    let seq = build_block(&parent, &state, txs.clone(), miner, 15_000, &limits);
    let par = build_block_with_mode(&parent, &state, &txs, miner, 15_000, &limits, &mode);
    assert_eq!(par.block.hash(), seq.block.hash(), "parallel/sequential divergence in the bench fixture");
    assert_eq!(seq.block.transactions.len() as u64, size, "every candidate must execute");

    let time = |mode: Option<&ExecMode>| {
        let start = Instant::now();
        for _ in 0..reps {
            let built = match mode {
                None => build_block_with_mode(
                    &parent,
                    &state,
                    &txs,
                    miner,
                    15_000,
                    &limits,
                    &ExecMode::Sequential,
                ),
                Some(mode) => build_block_with_mode(&parent, &state, &txs, miner, 15_000, &limits, mode),
            };
            std::hint::black_box(built.block.header.state_root);
        }
        start.elapsed() / reps.max(1) as u32
    };
    let sequential = time(None);
    let parallel = time(Some(&mode));
    let speedup = sequential.as_nanos() as f64 / parallel.as_nanos().max(1) as f64;
    Measured { sequential, parallel, speedup }
}

fn main() {
    let sizes = env_list_or("EXEC_TXS", &[64, 256, 512]);
    let conflicts = env_list_or("EXEC_CONFLICTS", &[0, 50, 100]);
    let threads = env_or("EXEC_THREADS", 4usize);
    let reps = env_or("EXEC_REPS", 3usize);
    let min_speedup = env_or("EXEC_MIN_SPEEDUP", 0.0f64);
    let max_slowdown = env_or("EXEC_MAX_SLOWDOWN", 0.0f64);

    println!("Block execution: sequential vs parallel ({threads} threads), {reps} builds per point");
    println!("| txs | conflict | sequential/block | parallel/block | speedup |");
    println!("|-----|----------|------------------|----------------|---------|");

    let mut clean_points: Vec<BenchPoint> = Vec::new();
    // Gate on the conflict-free point at the LARGEST size measured (the
    // size list is a free-form env knob, so track the max explicitly).
    let mut clean_gate: Option<(u64, f64)> = None;
    let mut worst_conflicted_speedup = f64::INFINITY;
    for &size in &sizes {
        for &conflict_pct in &conflicts {
            let m = measure(size, conflict_pct, 0, threads, reps);
            println!(
                "| {size:>3} | {conflict_pct:>7}% | {:>13.1} µs | {:>11.1} µs | {:>6.2}x |",
                m.sequential.as_nanos() as f64 / 1e3,
                m.parallel.as_nanos() as f64 / 1e3,
                m.speedup,
            );
            if conflict_pct == 0 {
                clean_points.push(BenchPoint::from_durations(size, m.sequential, m.parallel));
                if clean_gate.is_none_or(|(gate_size, _)| size >= gate_size) {
                    clean_gate = Some((size, m.speedup));
                }
            } else if conflict_pct == 100 {
                worst_conflicted_speedup = worst_conflicted_speedup.min(m.speedup);
            }
        }
    }
    let gate_speedup_clean = clean_gate.map_or(f64::INFINITY, |(_, speedup)| speedup);

    // The padded row: the largest conflict-free block again, over a genesis
    // padded with idle accounts. Printed and written to the artifact's
    // config, never gated.
    let padded_size = sizes.iter().copied().max().unwrap_or(0);
    let m = measure(padded_size, 0, IDLE_ACCOUNTS, threads, reps);
    let padded = BenchPoint::from_durations(padded_size, m.sequential, m.parallel);
    println!(
        "\npadded, not gated: {padded_size} txs, 0% conflict, {IDLE_ACCOUNTS} idle accounts: \
         sequential {:.1} µs, parallel {:.1} µs, {:.2}x",
        padded.base_us, padded.fast_us, padded.speedup,
    );

    let mut config = vec![
        ("threads", threads.to_string()),
        ("reps", reps.to_string()),
        ("conflict_pct", "0".to_string()),
        ("host_cpus", std::thread::available_parallelism().map_or(0, |n| n.get()).to_string()),
    ];
    config.extend(padded.padded_config());
    match write_bench_artifact("exec", "exec_scale", &config, &clean_points) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(error) => eprintln!("\nfailed to write BENCH_exec.json: {error}"),
    }

    // CI gates, mirroring STATE_MIN_SPEEDUP: speedup on the conflict-free
    // block at the largest size, and bounded slowdown at 100 % conflicts.
    // A gate without its measurement is a config error, not a pass — an
    // EXEC_CONFLICTS edit must not silently disable regression checking.
    if min_speedup > 0.0 {
        assert!(
            clean_gate.is_some(),
            "EXEC_MIN_SPEEDUP is set but EXEC_CONFLICTS={conflicts:?} has no 0% point to gate on"
        );
        assert!(
            gate_speedup_clean >= min_speedup,
            "parallel executor regressed: {gate_speedup_clean:.2}x < required {min_speedup:.2}x \
             on the conflict-free block at the largest size"
        );
    }
    if max_slowdown > 0.0 {
        assert!(
            worst_conflicted_speedup.is_finite(),
            "EXEC_MAX_SLOWDOWN is set but EXEC_CONFLICTS={conflicts:?} has no 100% point to gate on"
        );
        let floor = 1.0 / max_slowdown;
        assert!(
            worst_conflicted_speedup >= floor,
            "graceful degradation violated: {worst_conflicted_speedup:.2}x speedup at 100% conflicts \
             means more than {max_slowdown:.2}x slower than sequential"
        );
    }
}
