//! The host-speed probe: a fixed piece of work, owned by the benchmark,
//! whose rate tracks how fast the host runs this process at the moment.
//!
//! Host interference comes in phases of seconds to minutes and only ever
//! slows a run. On the 2-CPU host the benchmark was tuned on, the node's
//! commit rate on `market` moved by up to 1.6× from one run to the next;
//! scaled by this probe, its interquartile range over ten runs was 1.1%
//! of the median. The probe is the
//! Keccak-f\[1600\] permutation, the node's hottest primitive, but in the
//! benchmark's own implementation: no change to the node can move the
//! probe, so timings scaled by it to a reference host keep every slowdown
//! or speed-up the node itself causes.

use std::time::{Duration, Instant};

use crate::report::ratio;

/// The probe rate, in chunks per ms, of the reference host that scaled
/// timings are given for.
pub const REFERENCE_CHUNKS_PER_MS: f64 = 60.0;

/// Permutations in one chunk of the probe.
const PERMUTATIONS_PER_CHUNK: u64 = 32;

const ROUND_CONSTANTS: [u64; 24] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_8082,
    0x8000_0000_0000_808a,
    0x8000_0000_8000_8000,
    0x0000_0000_0000_808b,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8009,
    0x0000_0000_0000_008a,
    0x0000_0000_0000_0088,
    0x0000_0000_8000_8009,
    0x0000_0000_8000_000a,
    0x0000_0000_8000_808b,
    0x8000_0000_0000_008b,
    0x8000_0000_0000_8089,
    0x8000_0000_0000_8003,
    0x8000_0000_0000_8002,
    0x8000_0000_0000_0080,
    0x0000_0000_0000_800a,
    0x8000_0000_8000_000a,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8080,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8008,
];

/// ρ rotations along the π lane cycle that starts at lane 1.
const RHO: [u32; 24] =
    [1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44];

/// The π lane cycle that starts at lane 1.
const PI: [usize; 24] =
    [10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1];

/// The Keccak-f\[1600\] permutation, lanes indexed `x + 5 * y`.
pub fn keccak_f1600(lanes: &mut [u64; 25]) {
    for constant in ROUND_CONSTANTS {
        let mut parity = [0u64; 5];
        for (x, column) in parity.iter_mut().enumerate() {
            *column = lanes[x] ^ lanes[x + 5] ^ lanes[x + 10] ^ lanes[x + 15] ^ lanes[x + 20];
        }
        for x in 0..5 {
            let mix = parity[(x + 4) % 5] ^ parity[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                lanes[x + 5 * y] ^= mix;
            }
        }
        let mut carried = lanes[1];
        for (&to, &rotation) in PI.iter().zip(&RHO) {
            let next = lanes[to];
            lanes[to] = carried.rotate_left(rotation);
            carried = next;
        }
        for y in 0..5 {
            let row = [lanes[5 * y], lanes[5 * y + 1], lanes[5 * y + 2], lanes[5 * y + 3], lanes[5 * y + 4]];
            for x in 0..5 {
                lanes[x + 5 * y] = row[x] ^ (!row[(x + 1) % 5] & row[(x + 2) % 5]);
            }
        }
        lanes[0] ^= constant;
    }
}

/// Runs chunks of the probe until `budget` has passed (at least one
/// chunk). Returns the chunks run and the time taken.
pub fn host_probe(budget: Duration) -> (u64, Duration) {
    let mut lanes = [0u64; 25];
    let start = Instant::now();
    let mut chunks = 0;
    loop {
        for permutation in 0..PERMUTATIONS_PER_CHUNK {
            lanes[0] ^= permutation;
            keccak_f1600(std::hint::black_box(&mut lanes));
        }
        chunks += 1;
        let took = start.elapsed();
        if took >= budget {
            return (chunks, took);
        }
    }
}

/// The factor that turns a time measured while the host ran the probe at
/// `chunks` per `ns` into the time on the reference host.
pub fn scale_to_reference(chunks: u64, ns: u64) -> f64 {
    ratio(ratio(chunks as f64 * 1e6, ns as f64), REFERENCE_CHUNKS_PER_MS)
}
