//! End-to-end benchmark of one Sereth node pair: a miner plus a follower
//! that imports every sealed block, driven closed-loop through
//! `NodeHandle`'s public API. See `README.md` for the workloads, the
//! metrics and which layer each per-layer metric belongs to.

pub mod inputs;
pub mod layers;
pub mod probe;
pub mod report;
pub mod run;
pub mod trace;

use std::path::Path;
use std::time::{Duration, Instant};

use inputs::Spec;
use probe::{host_probe, scale_to_reference};
use report::{median, quantile, ratio, unit_of, Metric, END_TO_END};
use run::{dir_bytes, durable_follower, setup, Driver, Setup, PROBE_MIN};

/// An untraced run sets up at least this many times: once for the nodes
/// it drives, and the rest after the timed window, until at least
/// [`SETUP_MIN_SECONDS`] have been spent there.
pub const SETUP_MIN_REPS: usize = 5;

/// See [`SETUP_MIN_REPS`].
pub const SETUP_MIN_SECONDS: f64 = 2.0;

/// What one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    /// `true` when no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Run tags and sample counts, one `key=value` list.
    pub tags: String,
    /// The attribution of a traced run.
    pub layers: Option<layers::LayerReport>,
    /// The first failure, if any.
    pub first_failure: Option<String>,
}

/// Runs `spec` under `seed` for `seconds`, traced or not. Scratch files
/// (the durable follower's store, the span dump) go under `out_dir`.
pub fn run_benchmark(spec: Spec, seed: u64, seconds: f64, traced: bool, out_dir: &Path) -> Outcome {
    let workload = spec.workload;
    let tmp = out_dir.join("tmp");
    let mut setup_s: Vec<f64> = Vec::new();
    let mut driver = Driver::new(spec, seed, timed_setup(&spec, seed, &tmp, &mut setup_s));
    driver.warm_up();
    // The peak after one set-up and a fixed number of rounds covers the
    // block path, the pool and the caches, but not the chain's growth
    // over the timed window, which grows with throughput (a faster node
    // must not read as a bigger one).
    let rss_mb = peak_rss_mb();
    let length = Duration::from_secs_f64(seconds);
    let (metrics, layers, samples) = if traced {
        // Half the window untraced, as the reference for the overhead.
        let reference = driver.run_window(length / 2, false);
        let window = driver.run_window(length / 2, true);
        driver.drain();
        let bytes = driver.setup.store_dir.as_deref().map_or(0, dir_bytes);
        let report =
            layers::attribute(&window, reference.tps(), ratio(bytes as f64, driver.committed_total() as f64));
        let spans = out_dir.join("spans").join(format!("{}.txt", workload.name()));
        let tracers: Vec<(&str, &trace::Tracer)> =
            [("writer", window.writer.as_ref()), ("reader", window.reader.as_ref())]
                .into_iter()
                .filter_map(|(name, tracer)| tracer.map(|tracer| (name, tracer)))
                .collect();
        if let Err(error) = trace::write_spans(&spans, &tracers) {
            eprintln!("nodebench: could not write spans to {}: {error}", spans.display());
        }
        let samples = format!("blocks={} spans_file={}", window.blocks, spans.display());
        (report.metrics.clone(), Some(report), samples)
    } else {
        let window = driver.run_window(length, false);
        driver.drain();
        let more = Instant::now();
        while setup_s.len() < SETUP_MIN_REPS || more.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
            discard(timed_setup(&spec, seed, &tmp, &mut setup_s));
        }
        let (timings, raw) = (timings(&window, true), timings(&window, false));
        let values = [
            ("commit_tps", timings.commit_tps),
            ("commit_p50_ms", timings.commit_p50_ms),
            ("commit_p99_ms", timings.commit_p99_ms),
            ("read_p50_us", timings.read_p50_us),
            ("read_p99_us", timings.read_p99_us),
            ("buy_success_ratio", driver.buy_success_ratio()),
            ("setup_s", median(&setup_s)),
            ("peak_rss_mb", rss_mb),
        ];
        let metrics = values
            .into_iter()
            .map(|(name, value)| Metric { name, value, unit: unit_of(&END_TO_END, name) })
            .collect();
        let samples = format!(
            "blocks={} subwindows={} commit_samples={} read_samples={} probe_chunks_per_ms={:.1} \
             unscaled: commit_tps={:.1} commit_p50_ms={:.3} commit_p99_ms={:.3} read_p50_us={:.3} \
             read_p99_us={:.3}",
            window.blocks,
            timings.subwindows,
            timings.samples.0,
            timings.samples.1,
            timings.host_speed,
            raw.commit_tps,
            raw.commit_p50_ms,
            raw.commit_p99_ms,
            raw.read_p50_us,
            raw.read_p99_us,
        );
        (metrics, None, samples)
    };
    let tags = format!(
        "workload={} seed={seed} seconds={seconds} trace={} host_cpus={} profile={} follower={} fsync={} \
         driver_threads={} setup_reps={} {samples}",
        workload.name(),
        u8::from(traced),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        if durable_follower(workload) { "durable" } else { "in-memory" },
        if sereth_chain::DurableOptions::default().fsync { "on" } else { "off" },
        spec.driver_threads(),
        setup_s.len(),
    );
    let Driver { setup, tally, .. } = driver;
    discard(setup);
    Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        tags,
        layers,
        first_failure: tally.first_failure,
    }
}

/// Sets up once and appends the time it took, scaled to the reference
/// host by a probe run right after it for a tenth of that time, to
/// `times`.
fn timed_setup(spec: &Spec, seed: u64, tmp: &Path, times: &mut Vec<f64>) -> Setup {
    let workload = spec.workload;
    let store_dir = durable_follower(workload)
        .then(|| tmp.join(format!("{}-{}-{}", workload.name(), std::process::id(), times.len())));
    let start = Instant::now();
    let built = setup(spec, seed, store_dir);
    let took = start.elapsed();
    let (chunks, probed) = host_probe((took / 10).max(PROBE_MIN));
    times.push(took.as_secs_f64() * scale_to_reference(chunks, probed.as_nanos() as u64));
    built
}

/// Drops a set-up and deletes its durable store.
fn discard(setup: Setup) {
    let dir = setup.store_dir.clone();
    drop(setup);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A sub-window is the shortest run of whole rounds that lasts at least
/// this long: the host's speed changes over about a second.
pub const SUBWINDOW_MIN_S: f64 = 0.25;

/// The end-to-end timings of a window.
#[derive(Debug, Clone, PartialEq)]
pub struct Timings {
    /// Commit rate, tx/s.
    pub commit_tps: f64,
    /// Median commit latency, ms.
    pub commit_p50_ms: f64,
    /// p99 commit latency, ms.
    pub commit_p99_ms: f64,
    /// Median read latency, µs.
    pub read_p50_us: f64,
    /// p99 read latency, µs.
    pub read_p99_us: f64,
    /// Sub-windows the window split into.
    pub subwindows: usize,
    /// Commit and read samples behind the percentiles.
    pub samples: (usize, usize),
    /// Host-speed probe rate over the window, chunks per ms.
    pub host_speed: f64,
}

/// Consecutive rounds of a window.
#[derive(Debug, Clone, Copy)]
struct SubWindow {
    start_ns: u64,
    end_ns: u64,
    /// First round and one past the last.
    rounds: (usize, usize),
    committed: u64,
    excluded_ns: u64,
    /// Host-speed probe chunks and ns.
    probe: (u64, u64),
}

impl SubWindow {
    /// Rounds `first..last` of `window` (`first < last`), with the probes
    /// on both sides of each round.
    fn new(window: &run::Window, first: usize, last: usize) -> Self {
        let (start_ns, excluded_before, probe_before) = match first.checked_sub(1) {
            Some(i) => (window.rounds[i].end_ns, window.rounds[i].excluded_ns, window.rounds[i].probe),
            None => (0, 0, window.opening_probe),
        };
        let rounds = &window.rounds[first..last];
        let end = rounds[rounds.len() - 1];
        Self {
            start_ns,
            end_ns: end.end_ns,
            rounds: (first, last),
            committed: rounds.iter().map(|round| round.commits).sum(),
            excluded_ns: end.excluded_ns - excluded_before,
            probe: rounds
                .iter()
                .fold(probe_before, |(chunks, ns), round| (chunks + round.probe.0, ns + round.probe.1)),
        }
    }
}

/// Cuts `window` into consecutive sub-windows of whole rounds.
fn sub_windows(window: &run::Window) -> Vec<SubWindow> {
    let min_ns = (SUBWINDOW_MIN_S * 1e9) as u64;
    let mut bounds: Vec<(usize, usize)> = Vec::new();
    let (mut first, mut start_ns) = (0, 0);
    for (index, round) in window.rounds.iter().enumerate() {
        if round.end_ns - start_ns >= min_ns {
            bounds.push((first, index + 1));
            (first, start_ns) = (index + 1, round.end_ns);
        }
    }
    if first < window.rounds.len() {
        // A short tail joins the sub-window before it.
        match bounds.last_mut() {
            Some(last) => last.1 = window.rounds.len(),
            None => bounds.push((first, window.rounds.len())),
        }
    }
    bounds.into_iter().map(|(first, last)| SubWindow::new(window, first, last)).collect()
}

/// The commit and read timings of the whole `window`. With `scaled`, each
/// sample and each sub-window's wall time is scaled to the reference host
/// by the host-speed probes on both sides of the rounds of its sub-window
/// (at least [`SUBWINDOW_MIN_S`]): the probe never looks at the node's figures,
/// so a slowdown the node itself causes stays in them in full.
pub fn timings(window: &run::Window, scaled: bool) -> Timings {
    let subs = sub_windows(window);
    let mut reads = window.read_ns.clone();
    reads.sort_unstable();
    let (mut commit, mut read) = (Vec::new(), Vec::new());
    let (mut committed, mut wall_ns, mut probe) = (0, 0.0, (0, 0));
    for sub in &subs {
        let scale = if scaled { scale_to_reference(sub.probe.0, sub.probe.1) } else { 1.0 };
        let scaled = |ns: u64| (ns as f64 * scale) as u64;
        let (first, last) = sub.rounds;
        let lo = window.commit_ns.partition_point(|&(round, _)| round < first);
        let hi = window.commit_ns.partition_point(|&(round, _)| round < last);
        commit.extend(window.commit_ns[lo..hi].iter().map(|&(_, ns)| scaled(ns)));
        let lo = reads.partition_point(|&(at, _)| at < sub.start_ns);
        let hi = reads.partition_point(|&(at, _)| at < sub.end_ns);
        read.extend(reads[lo..hi].iter().map(|&(_, ns)| scaled(ns)));
        committed += sub.committed;
        wall_ns += (sub.end_ns - sub.start_ns).saturating_sub(sub.excluded_ns) as f64 * scale;
        probe = (probe.0 + sub.probe.0, probe.1 + sub.probe.1);
    }
    Timings {
        commit_tps: ratio(committed as f64, wall_ns / 1e9),
        commit_p50_ms: quantile(&mut commit, 0.50) as f64 / 1e6,
        commit_p99_ms: quantile(&mut commit, 0.99) as f64 / 1e6,
        read_p50_us: quantile(&mut read, 0.50) as f64 / 1e3,
        read_p99_us: quantile(&mut read, 0.99) as f64 / 1e3,
        subwindows: subs.len(),
        samples: (commit.len(), read.len()),
        host_speed: ratio(probe.0 as f64 * 1e6, probe.1 as f64),
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
