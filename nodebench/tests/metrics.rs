//! Every workload emits every named metric with its unit, at small sizes.

use std::path::PathBuf;

use nodebench::inputs::{Spec, Workload};
use nodebench::report::{END_TO_END, PER_LAYER};
use nodebench::run_benchmark;

fn small(workload: Workload) -> Spec {
    let spec = workload.spec();
    Spec { accounts: 1_000, pool_depth: spec.pool_depth.map(|_| 400), warmup_rounds: 2, ..spec }
}

fn out_dir(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("nodebench-{}", workload.name()))
}

fn check(workload: Workload) {
    for traced in [false, true] {
        let outcome = run_benchmark(small(workload), 3, 0.6, traced, &out_dir(workload));
        assert!(outcome.correct, "{workload:?}: {:?}", outcome.first_failure);
        assert!(outcome.attempted > 0 && outcome.failed == 0);
        let expected: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let emitted: Vec<(&str, &str)> =
            outcome.metrics.iter().map(|metric| (metric.name, metric.unit)).collect();
        assert_eq!(emitted, expected, "{workload:?} traced={traced}");
        assert!(outcome.metrics.iter().all(|metric| metric.value.is_finite() && metric.value >= 0.0));
        if traced {
            let layers = outcome.layers.expect("traced runs attribute");
            let rows: i64 = layers.rows.iter().map(|row| row.self_ns).sum();
            assert_eq!(rows, layers.spans_ns, "rows plus the remainder add up to the spans");
            assert!(layers.rows.iter().all(|row| row.self_ns >= 0), "{:?}", layers.rows);
        } else {
            assert!(outcome.metrics.iter().all(|metric| metric.value > 0.0), "{:?}", outcome.metrics);
        }
        assert!(outcome.tags.contains("host_cpus=") && outcome.tags.contains("fsync="));
    }
}

#[test]
fn market_emits_every_metric() {
    check(Workload::Market);
}

#[test]
fn market_deep_emits_every_metric() {
    check(Workload::MarketDeep);
}

#[test]
fn transfer_wide_emits_every_metric() {
    check(Workload::TransferWide);
}

#[test]
fn benchmark_json_declares_every_metric() {
    let declared = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        assert!(declared.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}
