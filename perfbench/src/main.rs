//! The SoftWatt benchmark: one command, three workloads, a seed.
//!
//! ```text
//! softwatt-perfbench --workload grid-cold|grid-warm|serve-open \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a table of every metric by name with its unit (median,
//! quartiles and repeat count where a metric is repeated), writes the
//! full record and, with `--trace 1`, every span under `perfbench/out/`,
//! and ends stdout with one JSON result line. Exits non-zero when any
//! correctness check failed. See `perfbench/README.md`.

mod grid;
mod host;
mod report;
mod serve_open;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["grid-cold", "grid-warm", "serve-open"];

/// Simulated time compression of every workload. The default, 2000,
/// makes a cold grid pass about 6 s on one core, so a run holds only four
/// or five passes and their median follows the host's slow stretches;
/// at 8000 a pass takes about 2.4 s, captures still own it, and a run
/// holds a dozen or more.
const TIME_SCALE: f64 = 8000.0;

/// The system every workload simulates: the default one, seeded, at
/// [`TIME_SCALE`].
fn config(seed: u64) -> softwatt::SystemConfig {
    softwatt::SystemConfig {
        seed,
        time_scale: TIME_SCALE,
        ..softwatt::SystemConfig::default()
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}; one of {WORKLOADS:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
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
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: softwatt-perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Outputs stay inside the checkout: next to this package's sources.
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let host = host::Host::probe();
    let (mut report, tracer) = match args.workload {
        "grid-cold" => grid::run(
            grid::Grid::Cold,
            args.seed,
            args.seconds,
            args.trace,
            &scratch,
        ),
        "grid-warm" => grid::run(
            grid::Grid::Warm,
            args.seed,
            args.seconds,
            args.trace,
            &scratch,
        ),
        _ => serve_open::run(args.seed, args.seconds, args.trace, &scratch),
    };
    report.set("peak_rss_mb", host::peak_rss_mb());
    let _ = std::fs::remove_dir_all(&scratch);

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = report.record_json(args.workload, args.seed, args.trace, &host);
    if let Err(e) = std::fs::write(out_dir.join(format!("{stem}.json")), record + "\n") {
        eprintln!("perfbench: cannot write the record: {e}");
    }
    if let Some(tracer) = &tracer {
        if let Err(e) = tracer.write_jsonl(&out_dir.join(format!("{stem}.spans.jsonl"))) {
            eprintln!("perfbench: cannot write the spans: {e}");
        }
    }
    print!(
        "{}",
        report.table(args.workload, args.seed, args.trace, &host)
    );
    println!("{}", report.result_line(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
