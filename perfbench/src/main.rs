//! The CSC benchmark: one workload per invocation, end-to-end metrics
//! with `--trace 0`, the per-layer split with `--trace 1`.
//!
//! ```text
//! csc-perfbench --workload <serve_read|insert_stream|churn_recover>
//!               --seed <n> --seconds <s> --trace <0|1> [--rev <id>]
//! ```
//!
//! Standard output carries a run header, one line per metric with its
//! unit, and, as its last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` in
//! this directory for what every metric and workload means.

mod e2e;
mod stats;
mod traced;
mod workload;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
}

const USAGE: &str =
    "usage: csc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rev <id>]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut rev = String::from("unknown");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--rev" => rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds {seconds}: expected a non-negative number"
        ));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        rev,
    })
}

/// Wall time of two threads spinning a fixed loop against one thread
/// spinning it alone: about 1 with two free cores, about 2 with one.
fn spin_ratio() -> f64 {
    fn spin() {
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        black_box(x);
    }
    let t = Instant::now();
    spin();
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(spin);
        s.spawn(spin);
    });
    t.elapsed().as_secs_f64() / one
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        eprintln!("unknown workload {:?}; one of {names:?}", args.workload);
        return ExitCode::from(2);
    };

    let spin = spin_ratio();
    let inputs = workload::Inputs::generate(&spec, args.seed);
    println!(
        "{{\"header\": {{\"rev\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \
         \"dataset\": \"{}\", \"scale\": {}, \"n\": {}, \"m\": {}, \"pool_width\": 1, \
         \"available_parallelism\": {}, \"spin_ratio_2v1\": {:.3}, \"seconds\": {}}}}}",
        args.rev,
        spec.name,
        args.seed,
        u8::from(args.trace),
        spec.dataset,
        spec.scale,
        inputs.graph.vertex_count(),
        inputs.graph.edge_count(),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        spin,
        args.seconds,
    );

    let result = if args.trace {
        traced::run(&spec, &inputs, args.seconds)
    } else {
        e2e::run(&spec, &inputs, args.seconds)
    };
    let (metrics, tally) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in metrics.iter() {
        println!("{name} = {value} {unit}");
    }
    println!(
        "failed_frac = {} ratio ({} failed of {} attempted)",
        stats::ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
