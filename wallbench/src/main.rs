//! Wall-clock benchmark of the hetjpeg decoder and server.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload photo|thumbs-serve|progressive-preview \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics;
//! with `--trace 1` it makes the separate traced run that yields the
//! per-layer metrics and writes its spans to `.bench_trace/`. Every output
//! is byte-compared with the scalar reference decoder's. The last line of
//! standard output is the JSON result.

mod corpus;
mod library;
mod serve;
mod stats;
mod trace;

use stats::Metrics;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per untraced run (`setup_s` is their median): more where one
/// set-up is short, so the median stays steady.
const PHOTO_SETUPS: usize = 3;
const PROGRESSIVE_SETUPS: usize = 5;
const SERVE_SETUPS: usize = 9;

/// Latency limit for `slo_ratio` on every workload (on `thumbs-serve`
/// timed from each request's due instant).
pub const SLO: Duration = Duration::from_millis(50);

/// What a run measured.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            eprintln!(
                "usage: wallbench --workload photo|thumbs-serve|progressive-preview \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();
    println!(
        "workload {} seed {} seconds {} trace {} on {} cores",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let (outcome, tracer) = match args.workload.as_str() {
        "photo" | "progressive-preview" => {
            let previews = args.workload != "photo";
            let corpus = if previews {
                corpus::progressive(args.seed)
            } else {
                corpus::photo(args.seed)
            };
            let pass = library::tasks(&corpus, previews, args.seed);
            if args.trace {
                let (mut o, mut t) = library::run_traced(&corpus, &pass, epoch);
                if previews {
                    library::serve_layers_idle(&mut o.metrics);
                } else {
                    // The serve layers are measured in photo's traced run,
                    // on the thumbnail corpus of the same seed: thumbs-serve
                    // itself is not steady enough to be a listed workload.
                    let thumbs = corpus::thumbs(args.seed);
                    let serve = serve::serve_layers(
                        &thumbs,
                        args.seed,
                        args.seconds,
                        &mut t,
                        &mut o.metrics,
                    );
                    o.attempted += serve.attempted;
                    o.failed += serve.failed;
                }
                (o, Some(t))
            } else {
                let setups = if previews {
                    PROGRESSIVE_SETUPS
                } else {
                    PHOTO_SETUPS
                };
                (library::run(&corpus, &pass, setups, args.seconds), None)
            }
        }
        "thumbs-serve" => {
            let corpus = corpus::thumbs(args.seed);
            if args.trace {
                let (o, t) = serve::run_traced(&corpus, args.seed, args.seconds, epoch);
                (o, Some(t))
            } else {
                (
                    serve::run(&corpus, args.seed, SERVE_SETUPS, args.seconds),
                    None,
                )
            }
        }
        other => {
            eprintln!("wallbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if let Some(t) = tracer {
        let path = std::path::Path::new(".bench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = t.write_jsonl(&path) {
            eprintln!("wallbench: writing spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans written to {}", path.display());
    }
    outcome.metrics.print_table();
    println!(
        "{}",
        outcome
            .metrics
            .result_line(outcome.failed == 0, outcome.attempted, outcome.failed)
    );
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
