//! Benchmark entry point.
//!
//! ```text
//! fc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable notes, then as its last line one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`. Exits
//! with 1 when a reply failed the correctness check and 2 on bad
//! arguments.

use fc_perfbench::alloc::CountingAlloc;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fc-perfbench: {e}");
            eprintln!(
                "usage: fc-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                fc_perfbench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so that every thread inherits it.
    match fc_perfbench::osstat::pin_to_fastest_cpu() {
        Some(cpu) => println!("# pinned to CPU {cpu}"),
        None => println!("# CPU pinning unavailable; running unpinned"),
    }
    let Some(report) = fc_perfbench::run(&args.workload, args.seed, args.seconds, args.trace)
    else {
        eprintln!("fc-perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
