//! `nodebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's tags, the attribution table of a traced run, and as
//! its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits non-zero on bad arguments or a failed check.

use std::path::Path;
use std::process::ExitCode;

use nodebench::inputs::Workload;
use nodebench::report::result_json;
use nodebench::run_benchmark;

const USAGE: &str =
    "usage: nodebench --workload <market|market_deep|transfer_wide> --seed <u64> --seconds <s> --trace <0|1>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| args.iter().position(|arg| arg == flag).and_then(|i| args.get(i + 1));
    let parsed = (|| {
        let spec = Workload::from_name(value("--workload")?)?.spec();
        let seed: u64 = value("--seed")?.parse().ok()?;
        let seconds: f64 = value("--seconds")?.parse().ok().filter(|s: &f64| *s > 0.0 && *s <= 600.0)?;
        let traced = match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        Some((spec, seed, seconds, traced))
    })();
    let Some((spec, seed, seconds, traced)) = parsed else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = run_benchmark(spec, seed, seconds, traced, Path::new(".nodebench"));
    println!("# nodebench {}", outcome.tags);
    if let Some(layers) = &outcome.layers {
        print!("{}", layers.table());
    }
    if let Some(failure) = &outcome.first_failure {
        eprintln!(
            "nodebench: {} of {} operations failed; first: {failure}",
            outcome.failed, outcome.attempted
        );
    }
    println!("{}", result_json(outcome.correct, outcome.attempted, outcome.failed, &outcome.metrics));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
