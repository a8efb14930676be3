//! Per-layer attribution of a traced window.
//!
//! The benchmark's spans wrap each call into a layer's public function;
//! the node's own phase histograms (read from `telemetry_snapshot()` at
//! the window's edges) split those spans further. A row's self time is
//! its span total minus the node phases inside it, and the rows plus the
//! unattributed remainder add up to the driver threads' root spans.

use std::fmt::Write;

use sereth_telemetry::TelemetrySnapshot;

use crate::report::{quantile, ratio, unit_of, Metric, PER_LAYER};
use crate::run::{Window, WindowTelemetry};
use crate::trace::Tracer;

/// One row of the attribution table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Layer and call.
    pub name: &'static str,
    /// Self time over the window, ns.
    pub self_ns: i64,
    /// The end-to-end metric a change here should move.
    pub moves: &'static str,
}

/// The per-layer metrics and the attribution table of a traced window.
#[derive(Debug)]
pub struct LayerReport {
    /// Every metric of [`PER_LAYER`], in order.
    pub metrics: Vec<Metric>,
    /// Attribution rows; their self times sum to `spans_ns`.
    pub rows: Vec<Row>,
    /// Total of the driver threads' root spans, ns.
    pub spans_ns: i64,
}

fn phase_ns(pair: &(TelemetrySnapshot, TelemetrySnapshot), phase: &str) -> i64 {
    let sum = |snapshot: &TelemetrySnapshot| snapshot.histograms.get(phase).map_or(0, |h| h.sum_ns) as i64;
    sum(&pair.1) - sum(&pair.0)
}

fn counter(pair: &(TelemetrySnapshot, TelemetrySnapshot), name: &str) -> f64 {
    let get = |snapshot: &TelemetrySnapshot| snapshot.counters.get(name).copied().unwrap_or(0);
    get(&pair.1).saturating_sub(get(&pair.0)) as f64
}

/// Attributes a traced window. `untraced_tps` is the commit rate of the
/// untraced reference window; `store_bytes_per_tx` the durable store's
/// size per committed transaction (0 in memory).
pub fn attribute(window: &Window, untraced_tps: f64, store_bytes_per_tx: f64) -> LayerReport {
    let writer = window.writer.as_ref().expect("traced window has writer spans");
    let tracers: Vec<&Tracer> = std::iter::once(writer).chain(window.reader.as_ref()).collect();
    let telemetry: &WindowTelemetry = window.telemetry.as_ref().expect("traced window has telemetry");
    let (miner, follower) = (&telemetry.miner, &telemetry.follower);
    let total = |name: &str| tracers.iter().map(|tracer| tracer.total_ns(name)).sum::<u64>() as i64;
    let durations =
        |name: &str| tracers.iter().flat_map(|tracer| tracer.durations(name)).collect::<Vec<u64>>();
    let p50 = |name: &str| quantile(&mut durations(name), 0.5) as f64;

    let admission = phase_ns(miner, "phase.admission");
    let order = phase_ns(miner, "phase.order_candidates");
    let seal = phase_ns(miner, "phase.seal");
    let (validate_m, import_m) = (phase_ns(miner, "phase.validate"), phase_ns(miner, "phase.import"));
    let (validate_f, import_f) = (phase_ns(follower, "phase.validate"), phase_ns(follower, "phase.import"));
    let build_self = total("node.mine") - order - seal - validate_m - import_m;
    let persist = total("node.receive_block") - validate_f - import_f;

    let mut rows = vec![
        Row { name: "client.sign", self_ns: total("client.sign"), moves: "commit_tps (client side)" },
        Row { name: "crypto.verify_sig", self_ns: total("crypto.verify_sig"), moves: "commit_tps" },
        Row {
            name: "node.receive_tx",
            self_ns: total("node.receive_tx") - admission,
            moves: "commit_p50_ms",
        },
        Row { name: "txpool.admission", self_ns: admission, moves: "commit_p50_ms, commit_tps" },
        Row { name: "raa.read", self_ns: total("raa.read"), moves: "read_p50_us, read_p99_us" },
        Row { name: "node.pool_len", self_ns: total("node.pool_len"), moves: "commit_tps" },
        Row { name: "miner.order", self_ns: order, moves: "commit_tps" },
        Row { name: "exec.build_self", self_ns: build_self, moves: "commit_tps" },
        Row { name: "builder.seal", self_ns: seal, moves: "commit_tps" },
        Row { name: "chain.validate_miner", self_ns: validate_m, moves: "commit_tps" },
        Row { name: "chain.import_miner", self_ns: import_m, moves: "commit_tps" },
        Row { name: "chain.validate_follower", self_ns: validate_f, moves: "commit_tps" },
        Row { name: "chain.import_follower", self_ns: import_f, moves: "commit_tps" },
        Row { name: "store.persist", self_ns: persist, moves: "commit_p99_ms" },
        Row { name: "state.root", self_ns: total("state.root"), moves: "commit_tps, commit_p99_ms" },
        Row { name: "bench.check", self_ns: total("bench.check"), moves: "none (correctness checks)" },
    ];
    let spans_ns: i64 = tracers
        .iter()
        .flat_map(|tracer| tracer.spans())
        .filter(|span| span.parent.is_none())
        .map(|span| span.ns() as i64)
        .sum();
    let children_ns: i64 = tracers
        .iter()
        .flat_map(|tracer| tracer.spans())
        .filter(|span| span.parent.is_some())
        .map(|span| span.ns() as i64)
        .sum();
    rows.push(Row { name: "unattributed", self_ns: spans_ns - children_ns, moves: "none" });

    let blocks = window.blocks as f64;
    let submitted = window.submitted as f64;
    let per_block_ms = |ns: i64| ratio(ns as f64 / 1e6, blocks);
    let traced_tps = ratio(window.committed as f64, window.wall.as_secs_f64());
    let (hits, rebuilds) = (counter(miner, "raa.hits"), counter(miner, "raa.rebuilds"));
    let depth = &window.depth_at_mine;
    let values: Vec<(&'static str, f64)> = vec![
        ("node.receive_tx.p50_us", p50("node.receive_tx") / 1e3),
        ("node.mine.p50_ms", p50("node.mine") / 1e6),
        ("node.receive_block.p50_ms", p50("node.receive_block") / 1e6),
        ("node.locks_per_tx", ratio(telemetry.lock_acquisitions as f64, submitted)),
        ("node.lock_hold_ms", per_block_ms(phase_ns(miner, "node.lock_hold"))),
        ("crypto.verify_sig.us", p50("crypto.verify_sig") / 1e3),
        ("txpool.admission_ms", per_block_ms(admission)),
        ("txpool.depth_at_mine", ratio(depth.iter().sum::<usize>() as f64, depth.len() as f64)),
        ("txpool.rescans", ratio(counter(miner, "pool.rescans"), blocks)),
        ("txpool.market_rescans", ratio(counter(miner, "pool.market_rescans"), blocks)),
        ("txpool.index_rebuilds", ratio(counter(miner, "pool.index_rebuilds"), blocks)),
        ("miner.order_ms", per_block_ms(order)),
        ("raa.read.p50_us", p50("raa.read") / 1e3),
        ("raa.hit_ratio", ratio(hits, hits + rebuilds)),
        ("raa.rebuilds_per_write", ratio(rebuilds, submitted)),
        ("raa.resyncs", counter(miner, "raa.resyncs")),
        ("exec.build_self_ms", per_block_ms(build_self)),
        ("exec.speculate_ms", per_block_ms(phase_ns(miner, "phase.speculate"))),
        ("exec.merge_ms", per_block_ms(phase_ns(miner, "phase.merge"))),
        ("exec.fallbacks", ratio(counter(miner, "exec.fallbacks"), blocks)),
        ("state.root_ms", p50("state.root") / 1e6),
        ("builder.seal_ms", per_block_ms(seal)),
        ("chain.validate_miner_ms", per_block_ms(validate_m)),
        ("chain.validate_follower_ms", per_block_ms(validate_f)),
        ("chain.import_ms", per_block_ms(import_m + import_f)),
        ("store.persist_ms", per_block_ms(persist)),
        ("store.bytes_per_tx", store_bytes_per_tx),
        ("trace.unattributed_share", ratio((spans_ns - children_ns) as f64, spans_ns as f64)),
        ("trace.overhead", ratio(traced_tps, untraced_tps)),
    ];
    let metrics = values
        .into_iter()
        .map(|(name, value)| Metric { name, value, unit: unit_of(&PER_LAYER, name) })
        .collect();
    LayerReport { metrics, rows, spans_ns }
}

impl LayerReport {
    /// The attribution table as text.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<24} {:>12} {:>8}  should move", "layer", "self_ms", "share");
        let mut sum = 0;
        for row in &self.rows {
            sum += row.self_ns;
            let share = ratio(row.self_ns as f64, self.spans_ns as f64);
            let _ = writeln!(
                out,
                "{:<24} {:>12.3} {:>7.2}%  {}",
                row.name,
                row.self_ns as f64 / 1e6,
                share * 100.0,
                row.moves
            );
        }
        let _ = writeln!(out, "{:<24} {:>12.3} {:>7.2}%", "= spans", sum as f64 / 1e6, 100.0);
        for metric in &self.metrics {
            let _ = writeln!(out, "{:<28} {:>14.4} {}", metric.name, metric.value, metric.unit);
        }
        out
    }
}
