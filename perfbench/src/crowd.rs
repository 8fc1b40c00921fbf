//! `crowd-churn`: the multi-user core, in-process.
//!
//! One thread and no sockets. 66 sessions (11 per zoo generator) run
//! in lockstep, in the zoo harness's order, with the generated think
//! times passed to `note_idle`; each lap takes the next of four seeded
//! variants of the crowd, so one run averages over several crowd
//! structures. Each session is a shared middleware over one
//! `SharedTileCache` of 512 tiles in 64 shards and one
//! `PredictScheduler`, the server's multi-user wiring, on the synthetic
//! 5,460-tile pyramid with the Updated/Hist1D engine at k = 8. The
//! cache is far smaller than the crowd's working set, so installs,
//! evictions, holds, cross-session hits and prefetch choices are the
//! work. Every lap opens fresh sessions over a fresh cache, so laps
//! repeat exactly; the scheduler lives for the whole run, as a
//! server's does, and its pair cache only ever changes speed.

use crate::check::Expected;
use crate::inputs::crowd_variants;
use crate::layers::{
    repeat_setups, scheduler_since, time_engine_builds, timed, tracing_overhead, CopyTotals,
    EndToEnd, Layers, SetupTimes,
};
use crate::metrics::{ratio, Report, Units};
use crate::osstat;
use crate::synth;
use crate::trace::{Tracer, ROOT};
use fc_core::{
    BatchConfig, LatencyProfile, Middleware, MultiUserCache, PredictScheduler, SchedulerStats,
    SharedCacheStats, SharedSessionHandle, SharedTileCache,
};
use fc_sim::zoo::Workload;
use fc_tiles::Pyramid;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared-cache capacity, tiles.
const CAPACITY: usize = 512;
/// Shared-cache shards.
const SHARDS: usize = 64;
/// Prefetch budget per session.
const K: usize = 8;
/// Recently requested tiles kept per session.
const HISTORY: usize = 4;
/// Lockstep steps in one workload unit. A lap lasts about a second,
/// longer than the spells in which other tenants of a shared host slow
/// the benchmark down; slices of a lap are short enough that each
/// repeats, in some lap of its variant, outside such a spell.
const UNIT_STEPS: usize = 32;
/// Set-ups per untraced run; `setup_s` is their median. A set-up takes
/// about 40 ms, short enough for a burst of other tenants' work to
/// cover several in a row, and the first two of a process run slower
/// while the allocator settles; the median of many is what repeats.
const SETUP_REPEATS: usize = 25;

/// Builds the pyramid and the predict scheduler every lap shares, as
/// a server's sessions share one scheduler for its lifetime.
fn setup() -> (Arc<Pyramid>, Arc<PredictScheduler>, SetupTimes) {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let pyramid = synth::pyramid(&mut times);
    let (scheduler, s) = timed(|| {
        Arc::new(PredictScheduler::new(
            synth::updated_engine(pyramid.geometry()).sb_model().clone(),
            pyramid.clone(),
            BatchConfig::default(),
        ))
    });
    times.bind_s = s;
    times.total_s = start.elapsed().as_secs_f64();
    (pyramid, scheduler, times)
}

/// Totals of the lockstep loop.
struct Totals {
    units: Units,
    failed: u64,
    /// Hits, paper-model latency and replies of the first completed
    /// lap of each variant: every lap starts from a cold cache, so a
    /// lap cut short by the deadline would tilt the hit rate toward its
    /// cold start, and counting each variant once keeps the rate
    /// independent of how many laps a run completes.
    lap_hits: u64,
    lap_sim_latency_ns: u128,
    lap_replies: u64,
    shared: SharedCacheStats,
    scheduler: SchedulerStats,
    copy: CopyTotals,
}

impl Totals {
    fn requests(&self) -> u64 {
        self.copy.requests
    }
}

/// Runs lockstep laps, lap `i` over `variants[i % len]`, until
/// `deadline` passes (checked before every request) or `laps` laps are
/// done.
fn replay(
    p: &Arc<Pyramid>,
    scheduler: &Arc<PredictScheduler>,
    variants: &[Vec<Workload>],
    expected: &Expected,
    deadline: Option<Instant>,
    laps: usize,
    mut tracer: Option<&mut Tracer>,
) -> Totals {
    let g = p.geometry();
    let mut t = Totals {
        units: Units::default(),
        failed: 0,
        lap_hits: 0,
        lap_sim_latency_ns: 0,
        lap_replies: 0,
        shared: SharedCacheStats::default(),
        scheduler: SchedulerStats::default(),
        copy: CopyTotals::default(),
    };
    let sched_before = scheduler.stats();
    // Only a measured replay moves between CPUs: a probe would tilt the
    // traced-to-untraced CPU ratio.
    let mut cpus = deadline.map(|_| osstat::CpuChooser::new());
    'laps: for lap in 0..laps {
        let v = lap % variants.len();
        let workloads = &variants[v];
        let longest = workloads.iter().map(Workload::len).max().unwrap_or(0);
        // A unit is a slice of UNIT_STEPS lockstep steps of one variant's
        // lap, its kind the slice's place: every lap of a variant
        // repeats the same work. One thread both drives and serves, so
        // the process's CPU time is serving time.
        let kind = |step: usize| v * longest + step / UNIT_STEPS;
        if let Some(c) = &mut cpus {
            c.tick();
        }
        t.units
            .begin(kind(0), Instant::now(), osstat::process_cpu_ns());
        let cache = Arc::new(SharedTileCache::with_shards(CAPACITY, SHARDS));
        let mut sessions: Vec<Middleware> = workloads
            .iter()
            .map(|_| {
                Middleware::new_shared(
                    synth::updated_engine(g),
                    p.clone(),
                    LatencyProfile::paper(),
                    HISTORY,
                    K,
                    SharedSessionHandle::open(
                        cache.clone() as Arc<dyn MultiUserCache>,
                        Some(scheduler.clone()),
                    ),
                )
            })
            .collect();
        let mut stop = false;
        let (mut hits, mut sim_ns, mut replies) = (0u64, 0u128, 0u64);
        'steps: for step in 0..longest {
            if step > 0 && step % UNIT_STEPS == 0 {
                if let Some(c) = &mut cpus {
                    c.tick();
                }
                t.units
                    .begin(kind(step), Instant::now(), osstat::process_cpu_ns());
            }
            for (mw, w) in sessions.iter_mut().zip(workloads) {
                let Some(s) = w.trace.steps.get(step) else {
                    continue;
                };
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    stop = true;
                    break 'steps;
                }
                let req = t.copy.requests;
                let root = tracer
                    .as_deref_mut()
                    .map_or(ROOT, |tr| tr.open("step", ROOT, req));
                mw.note_idle(w.think[step]);
                let mv = if step == 0 { None } else { s.mv };
                let resp = match tracer.as_deref_mut() {
                    Some(tr) => {
                        let span = tr.open("middleware.request", root, req);
                        let resp = mw.request(s.tile, mv);
                        tr.close(span);
                        if let Some(r) = &resp {
                            tr.child_of("engine.predict", span, r.predict_time);
                        }
                        tr.close(root);
                        resp
                    }
                    None => {
                        let t0 = Instant::now();
                        let resp = mw.request(s.tile, mv);
                        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        t.units.record(ns);
                        resp
                    }
                };
                match resp {
                    Some(r) => {
                        let ok = !r.degraded && expected.tile_matches(s.tile, &r.tile);
                        t.failed += u64::from(!ok);
                        hits += u64::from(r.cache_hit);
                        sim_ns += r.latency.as_nanos();
                        replies += 1;
                        t.copy.add_request(r.pair_cache, r.prefetched.len(), 0);
                    }
                    None => {
                        t.failed += 1;
                        t.copy.requests += 1;
                    }
                }
            }
        }
        for mw in &sessions {
            t.copy.add_session(&mw.stats());
        }
        drop(sessions);
        let shared = cache.stats();
        t.shared.hits += shared.hits;
        t.shared.misses += shared.misses;
        t.shared.cross_session_hits += shared.cross_session_hits;
        t.shared.evictions += shared.evictions;
        if stop {
            break 'laps;
        }
        if lap < variants.len() {
            t.lap_hits += hits;
            t.lap_sim_latency_ns += sim_ns;
            t.lap_replies += replies;
        }
    }
    t.scheduler = scheduler_since(scheduler.stats(), sched_before);
    t
}

/// Runs `crowd-churn`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let duration = Duration::from_secs_f64(seconds);
    let mut report = Report::default();
    let (p, scheduler, times) = setup();
    let variants = crowd_variants(seed, p.geometry());
    let expected = Expected::for_pyramid(&p);

    let tasks_before = osstat::snapshot();
    let driver_before = osstat::this_thread();
    let allocs_before = crate::alloc::process_total();
    let reads_before = p.store().io_stats().reads;
    let measured = replay(
        &p,
        &scheduler,
        &variants,
        &expected,
        Some(Instant::now() + duration),
        usize::MAX,
        None,
    );
    let reads = p.store().io_stats().reads - reads_before;
    let allocs = crate::alloc::process_total().since(allocs_before);
    let driver = osstat::this_thread().since(driver_before);
    // One thread both drives and serves: every thread's time is
    // serving time.
    let serving = osstat::delta(&tasks_before, &osstat::snapshot(), None);
    let n = measured.requests() as f64;
    report.attempted = measured.requests();
    report.failed = measured.failed;

    if !trace {
        let mut e2e = EndToEnd {
            hit_rate: ratio(measured.lap_hits as f64, measured.lap_replies as f64),
            sim_latency_ms: ratio(
                measured.lap_sim_latency_ns as f64 / 1e6,
                measured.lap_replies as f64,
            ),
            peak_rss_mb: osstat::peak_rss_mb(),
            ..EndToEnd::default()
        };
        e2e.set_units(&measured.units.summary());
        e2e.ok_frac = report.ok_frac();
        drop((p, scheduler));
        e2e.setup_s = repeat_setups(times.total_s, SETUP_REPEATS, || setup().2.total_s);
        e2e.push_to(&mut report);
    } else {
        let mut tracer = Tracer::with_capacity(1 << 20);
        times.record(&mut tracer);
        let mut layers = Layers {
            setup: times,
            ..Layers::default()
        };
        let g = p.geometry();
        layers.build_us = time_engine_builds(&mut tracer, || synth::updated_engine(g));
        let mut traced = CopyTotals::default();
        layers.overhead_frac = tracing_overhead(|on| {
            let tr = on.then_some(&mut tracer);
            let t = replay(&p, &scheduler, &variants[..1], &expected, None, 1, tr);
            report.attempted += t.requests();
            report.failed += t.failed;
            if on {
                traced.merge(&t.copy);
            }
        });
        layers.driver_requests = measured.units.samples() as f64;
        layers.driver_cpu_us_per_req = ratio(driver.cpu_ns as f64 / 1e3, n);
        layers.vfs_syscalls_per_req = ratio(serving.syscalls as f64, n);
        layers.ctx_switches_per_req = ratio(serving.ctx_switches as f64, n);
        layers.sys_us_per_req = ratio(serving.sys_ns as f64 / 1e3, n);
        layers.allocs_per_req = ratio(allocs.allocs as f64, n);
        layers.alloc_bytes_per_req = ratio(allocs.bytes as f64, n);
        layers.set_trace(&tracer, "step");
        layers.set_copy(&traced);
        layers.set_shared(measured.shared, measured.requests());
        layers.set_scheduler(measured.scheduler);
        layers.backend_fetches_per_req = ratio(reads as f64, n);
        layers.push_to(&mut report);
        crate::write_trace(&tracer, "crowd-churn", seed, &mut report);
    }
    report.correct = report.failed == 0;
    report
}
