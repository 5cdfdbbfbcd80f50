//! End-to-end and per-layer benchmark of the MLoRa-SS simulator.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload <paper|metro|fork|sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run builds the workload's input from the seed,
//! runs one checked warm-up and then whole timed reps of the workload's
//! unit for `--seconds`, timing set-ups between them, and prints the
//! end-to-end metrics. With `--trace 1` it runs the unit under spans recorded
//! around every call into the simulator's layers, replays the layers'
//! kernels on the workload's own positions, distances and frames, writes
//! the spans to `simbench/out/`, and prints the per-layer metrics. The
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `simbench/README.md` for the workloads and what each metric means.

mod check;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use workload::Workload;

/// One metric as printed: name, measured value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one run hands back to `main`.
pub struct Outcome {
    /// False when the checked warm-up (the reference every operation is
    /// compared with) failed its output checks.
    pub correct: bool,
    /// Operations attempted: timed reps, branches or cells.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives. JSON has no NaN or infinity: those print as -1, and `main`
/// marks the run incorrect.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1.0".to_string()
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2020;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "simbench: {e}\nusage: simbench --workload <paper|metro|fork|sweep> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let mut outcome = if args.trace {
        trace::run(args.workload, args.seed)
    } else {
        workload::run(args.workload, args.seed, args.seconds)
    };
    for (name, value, _) in &outcome.metrics {
        if !value.is_finite() {
            eprintln!("simbench: metric {name} is not finite ({value})");
            outcome.correct = false;
        }
    }
    eprintln!(
        "simbench: {} seed {} trace {} done in {:.1} s: {} of {} operations failed",
        args.workload,
        args.seed,
        args.trace as u8,
        start.elapsed().as_secs_f64(),
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
