//! Metric names, summary statistics and the result line.

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("commit_tps", "tx/s"),
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("buy_success_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("node.receive_tx.p50_us", "us"),
    ("node.mine.p50_ms", "ms"),
    ("node.receive_block.p50_ms", "ms"),
    ("node.locks_per_tx", "1/tx"),
    ("node.lock_hold_ms", "ms/block"),
    ("crypto.verify_sig.us", "us"),
    ("txpool.admission_ms", "ms/block"),
    ("txpool.depth_at_mine", "tx"),
    ("txpool.rescans", "1/block"),
    ("txpool.market_rescans", "1/block"),
    ("txpool.index_rebuilds", "1/block"),
    ("miner.order_ms", "ms/block"),
    ("raa.read.p50_us", "us"),
    ("raa.hit_ratio", "ratio"),
    ("raa.rebuilds_per_write", "1/tx"),
    ("raa.resyncs", "count"),
    ("exec.build_self_ms", "ms/block"),
    ("exec.speculate_ms", "ms/block"),
    ("exec.merge_ms", "ms/block"),
    ("exec.fallbacks", "1/block"),
    ("state.root_ms", "ms"),
    ("builder.seal_ms", "ms/block"),
    ("chain.validate_miner_ms", "ms/block"),
    ("chain.validate_follower_ms", "ms/block"),
    ("chain.import_ms", "ms/block"),
    ("store.persist_ms", "ms/block"),
    ("store.bytes_per_tx", "B/tx"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Looks up the unit `table` gives `name`.
pub fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table.iter().find(|(known, _)| *known == name).map(|(_, unit)| *unit).expect("metric is listed")
}

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|metric| {
            let value = if metric.value.is_finite() { metric.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", metric.name, value, metric.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
