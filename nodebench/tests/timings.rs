//! The end-to-end timings count every round of a window, and scale each
//! sub-window by the host-speed probe alone.

use std::time::{Duration, Instant};

use nodebench::probe::REFERENCE_CHUNKS_PER_MS;
use nodebench::run::{Round, Window};
use nodebench::timings;

const MS: u64 = 1_000_000;

/// A window of one-second rounds, each committing one transaction whose
/// latency is the round's length; `probe` is the rate around each round
/// in chunks per ms.
fn window(lengths_ms: &[u64], probe: f64) -> Window {
    let chunks = |ms: u64| ((probe * ms as f64) as u64, ms * MS);
    let mut rounds = Vec::new();
    let mut end_ns = 0;
    for &length in lengths_ms {
        end_ns += length * MS;
        rounds.push(Round { end_ns, commits: 1, excluded_ns: 0, probe: chunks(10) });
    }
    Window {
        start: Instant::now(),
        wall: Duration::from_nanos(end_ns),
        excluded: Duration::ZERO,
        committed: lengths_ms.len() as u64,
        submitted: lengths_ms.len() as u64,
        blocks: lengths_ms.len() as u64,
        commit_ns: lengths_ms.iter().enumerate().map(|(round, &ms)| (round, ms * MS)).collect(),
        read_ns: vec![(end_ns / 2, 5_000)],
        rounds,
        opening_probe: chunks(10),
        depth_at_mine: Vec::new(),
        writer: None,
        reader: None,
        telemetry: None,
    }
}

#[test]
fn a_slow_stretch_of_the_node_stays_in_the_figures() {
    // 96 fast rounds and 4 slow ones at an unchanged host speed.
    let mut lengths = vec![1_000; 96];
    lengths.extend([3_000; 4]);
    let measured = timings(&window(&lengths, REFERENCE_CHUNKS_PER_MS), true);
    assert_eq!(measured.commit_p99_ms, 3_000.0);
    assert!((measured.commit_tps - 100.0 / 108.0).abs() < 1e-9, "{}", measured.commit_tps);
    assert_eq!(measured.samples, (100, 1));
}

#[test]
fn timings_scale_with_the_probe_rate() {
    let lengths = [1_000; 20];
    let slow_host = window(&lengths, REFERENCE_CHUNKS_PER_MS / 2.0);
    let unscaled = timings(&slow_host, false);
    let scaled = timings(&slow_host, true);
    assert_eq!(unscaled.commit_p50_ms, 1_000.0);
    assert!((scaled.commit_p50_ms - 500.0).abs() < 1e-3, "{}", scaled.commit_p50_ms);
    assert!((scaled.commit_tps - 2.0 * unscaled.commit_tps).abs() < 1e-9);
    assert!((scaled.read_p50_us - 2.5).abs() < 1e-3, "{}", scaled.read_p50_us);
}
