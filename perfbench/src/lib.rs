//! # fc-perfbench — the tile server measured from outside
//!
//! One command runs a named workload from a seed, checks every reply,
//! and reports the end-to-end metrics of an untraced run or, with
//! tracing on, the per-layer metrics of a traced run. The benchmark
//! drives `fc-server`, `fc-core`, `fc-sim` and `fc-tiles` through their
//! public APIs only; the server runs in the same process, as in every
//! harness of the repository.
//!
//! Workloads:
//! * [`paper`] — `paper-explore`, the paper's configuration over the wire;
//! * [`pan`] — `pan-flood`, the wire path with cheap prediction;
//! * [`crowd`] — `crowd-churn`, the multi-user core in-process.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod alloc;
pub mod check;
pub mod crowd;
pub mod inproc;
pub mod inputs;
pub mod layers;
pub mod metrics;
pub mod osstat;
pub mod pan;
pub mod paper;
pub mod synth;
pub mod trace;
pub mod wire;

use metrics::Report;
use std::path::PathBuf;

/// The workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["paper-explore", "pan-flood", "crowd-churn"];

/// Runs workload `name` for `seconds` of measurement; `None` for an
/// unknown name.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<Report> {
    match name {
        "paper-explore" => Some(paper::run(seed, seconds, trace)),
        "pan-flood" => Some(pan::run(seed, seconds, trace)),
        "crowd-churn" => Some(crowd::run(seed, seconds, trace)),
        _ => None,
    }
}

/// Writes a traced run's spans under `.bench_out/` and notes where.
pub fn write_trace(tracer: &trace::Tracer, workload: &str, seed: u64, report: &mut Report) {
    let path = PathBuf::from(".bench_out").join(format!("trace-{workload}-{seed}.csv"));
    match tracer.write_csv(&path) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => report
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
}
