//! The metric sets: end-to-end (untraced runs) and per-layer (traced
//! run). Every workload prints every metric of a set; a layer a
//! workload bypasses reads 0 there.

use crate::metrics::{quantile, ratio, us, Report, UnitSummary, FAST_SHARE};
use crate::trace::Tracer;
use crate::wire::WireRun;
use fc_core::{
    MiddlewareStats, PairCacheStats, PredictionEngine, SchedulerStats, SharedCacheStats,
};
use std::time::{Duration, Instant};

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Pause before each extra set-up. Other tenants of a shared host slow
/// the benchmark down in spells of a second or two; spread out, the
/// set-ups of one run sample several spells instead of one.
const SETUP_GAP: Duration = Duration::from_millis(150);

/// The median of `first` and `repeats - 1` more set-ups. The extra
/// set-ups run after the measured phase, so the phase and its peak
/// memory see one set-up only, and each starts on the CPU that is
/// fastest at that moment, as the run itself did.
pub fn repeat_setups(first: f64, repeats: usize, mut again: impl FnMut() -> f64) -> f64 {
    let mut all = vec![first];
    all.extend((1..repeats).map(|_| {
        std::thread::sleep(SETUP_GAP);
        crate::osstat::pin_to_fastest_cpu();
        again()
    }));
    crate::metrics::median(&mut all)
}

/// Set-up spans, seconds. `total_s` runs from the first input to the
/// point the first request can be sent.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `build_ndsi_database`.
    pub terrain_s: f64,
    /// `PyramidBuilder::build`.
    pub pyramid_s: f64,
    /// `attach_signatures` (or the signature fill of a synthetic pyramid).
    pub signatures_s: f64,
    /// `Study::generate`.
    pub study_s: f64,
    /// `PhaseClassifier::train_on_features`.
    pub svm_s: f64,
    /// `Server::bind`, or the construction of the shared cache and
    /// scheduler when there is no server.
    pub bind_s: f64,
    /// The whole set-up.
    pub total_s: f64,
}

impl SetupTimes {
    /// Adds the set-up spans to a tracer.
    pub fn record(&self, t: &mut Tracer) {
        for (name, s) in [
            ("setup.terrain", self.terrain_s),
            ("setup.pyramid", self.pyramid_s),
            ("setup.signatures", self.signatures_s),
            ("setup.study", self.study_s),
            ("setup.svm", self.svm_s),
            ("setup.bind", self.bind_s),
        ] {
            t.record(name, Duration::from_secs_f64(s), crate::trace::NO_REQUEST);
        }
    }
}

/// The end-to-end metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Median set-up time over the run's set-ups, s.
    pub setup_s: f64,
    /// Completed tile requests per second of the fastest units' wall
    /// time (see [`UnitSummary`]).
    pub throughput_rps: f64,
    /// Request latency p50 of the fastest units' pooled samples, µs.
    pub latency_p50_us: f64,
    /// Request latency p99 of the same samples, µs.
    pub latency_p99_us: f64,
    /// The units the three figures above and `cpu_us_per_req` come from.
    pub units: UnitSummary,
    /// CPU time of the serving threads per completed request in the
    /// fastest units, µs.
    pub cpu_us_per_req: f64,
    /// Cache hits per reply, as the server counts them.
    pub hit_rate: f64,
    /// Mean paper-model latency per reply, ms.
    pub sim_latency_ms: f64,
    /// Share of attempted requests answered correctly.
    pub ok_frac: f64,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Fills throughput, latency and CPU from a phase's unit summary.
    pub fn set_units(&mut self, u: &UnitSummary) {
        self.units = *u;
        self.throughput_rps = u.throughput_rps;
        self.latency_p50_us = u.p50_ns / 1e3;
        self.latency_p99_us = u.p99_ns / 1e3;
        self.cpu_us_per_req = u.cpu_ns_per_req / 1e3;
    }

    /// Appends the metrics and a note on the units and samples behind
    /// them.
    pub fn push_to(&self, r: &mut Report) {
        let u = &self.units;
        r.notes.push(format!(
            "throughput_rps, latency_p50_us, latency_p99_us, cpu_us_per_req: the fastest \
             {:.0} % (at least one) of each kind's complete units, {} of {} units of {} \
             kind(s); {} samples, {} beyond the p99",
            FAST_SHARE * 100.0,
            u.units,
            u.complete,
            u.kinds,
            u.samples,
            u.samples / 100
        ));
        r.push("setup_s", self.setup_s, "s");
        r.push("throughput_rps", self.throughput_rps, "req/s");
        r.push("latency_p50_us", self.latency_p50_us, "us");
        r.push("latency_p99_us", self.latency_p99_us, "us");
        r.push("cpu_us_per_req", self.cpu_us_per_req, "us");
        r.push("hit_rate", self.hit_rate, "ratio");
        r.push("sim_latency_ms", self.sim_latency_ms, "ms");
        r.push("ok_frac", self.ok_frac, "ratio");
        r.push("peak_rss_mb", self.peak_rss_mb, "MB");
    }
}

/// Totals of an in-process copy of the serving path.
#[derive(Debug, Clone, Copy, Default)]
pub struct CopyTotals {
    /// Requests served.
    pub requests: u64,
    /// Requests whose reply failed the check.
    pub failed: u64,
    /// Tiles prefetched.
    pub prefetched: u64,
    /// Reply bytes encoded.
    pub reply_bytes: u64,
    /// Pair-cache activity.
    pub pair_cache: PairCacheStats,
    /// Middleware statistics summed over sessions.
    pub per_phase: [usize; 3],
    /// Speculative tiles fetched.
    pub prefetch_issued: usize,
    /// Speculative tiles later served as hits.
    pub prefetch_used: usize,
}

impl CopyTotals {
    /// Adds one closed session's middleware statistics.
    pub fn add_session(&mut self, s: &MiddlewareStats) {
        for (sum, n) in self.per_phase.iter_mut().zip(s.per_phase) {
            *sum += n;
        }
        self.prefetch_issued += s.prefetch_issued;
        self.prefetch_used += s.prefetch_used;
    }

    /// Adds another copy's totals.
    pub fn merge(&mut self, o: &CopyTotals) {
        self.requests += o.requests;
        self.failed += o.failed;
        self.prefetched += o.prefetched;
        self.reply_bytes += o.reply_bytes;
        self.pair_cache.hits += o.pair_cache.hits;
        self.pair_cache.misses += o.pair_cache.misses;
        for (sum, n) in self.per_phase.iter_mut().zip(o.per_phase) {
            *sum += n;
        }
        self.prefetch_issued += o.prefetch_issued;
        self.prefetch_used += o.prefetch_used;
    }

    /// Adds one request's pair-cache delta and prefetch count.
    pub fn add_request(&mut self, pair: PairCacheStats, prefetched: usize, reply_bytes: usize) {
        self.requests += 1;
        self.prefetched += prefetched as u64;
        self.reply_bytes += reply_bytes as u64;
        self.pair_cache.hits += pair.hits;
        self.pair_cache.misses += pair.misses;
    }
}

/// The per-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Driver sample count.
    pub driver_requests: f64,
    /// Driver CPU per request, µs.
    pub driver_cpu_us_per_req: f64,
    /// Serving-thread VFS read and write syscalls per request (socket
    /// `send`/`recv` and `epoll_wait` are not among them).
    pub vfs_syscalls_per_req: f64,
    /// Serving-thread kernel CPU time per request, µs.
    pub sys_us_per_req: f64,
    /// Serving-thread context switches per request.
    pub ctx_switches_per_req: f64,
    /// Bytes the server wrote to its sockets per request.
    pub bytes_out_per_req: f64,
    /// Serving-thread allocations per request.
    pub allocs_per_req: f64,
    /// Serving-thread allocated bytes per request.
    pub alloc_bytes_per_req: f64,
    /// Wire p50 less the traced pipeline p50, µs.
    pub wire_gap_us: f64,
    /// `ClientMsg::decode` p50, µs.
    pub decode_us: f64,
    /// `tile_payload` p50, µs.
    pub payload_us: f64,
    /// `ServerMsg::encode_into` p50, µs.
    pub encode_us: f64,
    /// Mean encoded reply, bytes.
    pub reply_bytes: f64,
    /// `Middleware::request` p50, µs.
    pub request_p50_us: f64,
    /// `Middleware::request` less its predict time, p50, µs.
    pub self_p50_us: f64,
    /// Tiles prefetched per request.
    pub prefetch_per_req: f64,
    /// Useful prefetches over prefetches.
    pub prefetch_efficiency: f64,
    /// Predict time p50, µs.
    pub predict_p50_us: f64,
    /// Predict time p99, µs.
    pub predict_p99_us: f64,
    /// One `EngineFactory` call, median, µs.
    pub build_us: f64,
    /// χ² pair-cache hit rate.
    pub pair_cache_hit_rate: f64,
    /// Requests per phase over requests.
    pub phase_share: [f64; 3],
    /// Shared-cache hit rate.
    pub shared_hit_rate: f64,
    /// Shared-cache evictions per request.
    pub evictions_per_req: f64,
    /// Cross-session hits per request.
    pub cross_session_hits_per_req: f64,
    /// Jobs per scheduler batch.
    pub mean_batch: f64,
    /// Largest scheduler batch.
    pub largest_batch: f64,
    /// Scheduler follower rescues.
    pub rescues: f64,
    /// Backend fetches per request.
    pub backend_fetches_per_req: f64,
    /// Set-up spans.
    pub setup: SetupTimes,
    /// Stage self times over pipeline time.
    pub closure_frac: f64,
    /// Traced over untraced copy wall time, less one.
    pub overhead_frac: f64,
}

/// p50 of the named spans' self times (or whole durations), µs.
fn span_p50(
    tracer_times: &std::collections::BTreeMap<&str, crate::trace::NameTimes>,
    name: &str,
    own: bool,
) -> f64 {
    tracer_times.get(name).map_or(0.0, |t| {
        let mut v = if own {
            t.self_ns.clone()
        } else {
            t.total_ns.clone()
        };
        v.sort_unstable();
        us(quantile(&v, 0.5))
    })
}

impl Layers {
    /// Driver and serving-thread counters of a wire run.
    pub fn set_wire(&mut self, run: &WireRun) {
        let n = run.answered as f64;
        self.driver_requests = run.units.samples() as f64;
        self.driver_cpu_us_per_req = ratio(run.driver.cpu_ns as f64 / 1e3, n);
        self.vfs_syscalls_per_req = ratio(run.serving.syscalls as f64, n);
        self.sys_us_per_req = ratio(run.serving.sys_ns as f64 / 1e3, n);
        self.ctx_switches_per_req = ratio(run.serving.ctx_switches as f64, n);
        self.bytes_out_per_req = ratio(run.bytes_in as f64, n);
        self.allocs_per_req = ratio(run.serving_allocs.allocs as f64, n);
        self.alloc_bytes_per_req = ratio(run.serving_allocs.bytes as f64, n);
    }

    /// Stage timings from a traced copy whose request roots are named
    /// `root`.
    pub fn set_trace(&mut self, tracer: &Tracer, root: &str) {
        let t = tracer.by_name();
        self.decode_us = span_p50(&t, "protocol.decode", true);
        self.payload_us = span_p50(&t, "protocol.payload", true);
        self.encode_us = span_p50(&t, "protocol.encode", true);
        self.request_p50_us = span_p50(&t, "middleware.request", false);
        self.self_p50_us = span_p50(&t, "middleware.request", true);
        if let Some(p) = t.get("engine.predict") {
            let mut v = p.total_ns.clone();
            v.sort_unstable();
            self.predict_p50_us = us(quantile(&v, 0.5));
            self.predict_p99_us = us(quantile(&v, 0.99));
        }
        self.closure_frac = tracer.closure(root);
    }

    /// The per-layer figures of a wire workload: its wire run, the
    /// traced copy of its serving path, and the backend reads made
    /// during the wire run.
    pub fn set_wire_trace(
        &mut self,
        run: &WireRun,
        tracer: &Tracer,
        copy: &CopyTotals,
        reads: usize,
    ) {
        self.set_wire(run);
        self.set_trace(tracer, "pipeline");
        self.set_copy(copy);
        // Both sides over all their requests, quiet or not.
        let wire_p50 = us(run.units.overall_quantile(0.5));
        self.wire_gap_us = wire_p50 - span_p50(&tracer.by_name(), "pipeline", false);
        self.backend_fetches_per_req = ratio(reads as f64, run.answered as f64);
    }

    /// Middleware and engine totals of a copy.
    pub fn set_copy(&mut self, c: &CopyTotals) {
        let n = c.requests as f64;
        self.reply_bytes = ratio(c.reply_bytes as f64, n);
        self.prefetch_per_req = ratio(c.prefetched as f64, n);
        self.prefetch_efficiency = ratio(c.prefetch_used as f64, c.prefetch_issued as f64);
        self.pair_cache_hit_rate = ratio(
            c.pair_cache.hits as f64,
            (c.pair_cache.hits + c.pair_cache.misses) as f64,
        );
        let phased: usize = c.per_phase.iter().sum();
        for (share, &k) in self.phase_share.iter_mut().zip(&c.per_phase) {
            *share = ratio(k as f64, phased as f64);
        }
    }

    /// Shared-cache counters accumulated over `requests` requests.
    pub fn set_shared(&mut self, s: SharedCacheStats, requests: u64) {
        let n = requests as f64;
        self.shared_hit_rate = s.hit_rate();
        self.evictions_per_req = ratio(s.evictions as f64, n);
        self.cross_session_hits_per_req = ratio(s.cross_session_hits as f64, n);
    }

    /// Scheduler counters.
    pub fn set_scheduler(&mut self, s: SchedulerStats) {
        self.mean_batch = ratio(s.jobs as f64, s.batches as f64);
        self.largest_batch = s.largest_batch as f64;
        self.rescues = s.rescues as f64;
    }

    /// Appends every per-layer metric.
    pub fn push_to(&self, r: &mut Report) {
        r.push("driver.requests", self.driver_requests, "count");
        r.push("driver.cpu_us_per_req", self.driver_cpu_us_per_req, "us");
        r.push(
            "server.vfs_syscalls_per_req",
            self.vfs_syscalls_per_req,
            "count/req",
        );
        r.push("server.sys_us_per_req", self.sys_us_per_req, "us");
        r.push(
            "server.ctx_switches_per_req",
            self.ctx_switches_per_req,
            "count/req",
        );
        r.push(
            "server.bytes_out_per_req",
            self.bytes_out_per_req,
            "bytes/req",
        );
        r.push("server.allocs_per_req", self.allocs_per_req, "count/req");
        r.push(
            "server.alloc_bytes_per_req",
            self.alloc_bytes_per_req,
            "bytes/req",
        );
        r.push("server.wire_gap_us", self.wire_gap_us, "us");
        r.push("protocol.decode_us", self.decode_us, "us");
        r.push("protocol.payload_us", self.payload_us, "us");
        r.push("protocol.encode_us", self.encode_us, "us");
        r.push("protocol.reply_bytes", self.reply_bytes, "bytes");
        r.push("middleware.request_p50_us", self.request_p50_us, "us");
        r.push("middleware.self_p50_us", self.self_p50_us, "us");
        r.push(
            "middleware.prefetch_per_req",
            self.prefetch_per_req,
            "count/req",
        );
        r.push(
            "middleware.prefetch_efficiency",
            self.prefetch_efficiency,
            "ratio",
        );
        r.push("engine.predict_p50_us", self.predict_p50_us, "us");
        r.push("engine.predict_p99_us", self.predict_p99_us, "us");
        r.push("engine.build_us", self.build_us, "us");
        r.push("sb.pair_cache_hit_rate", self.pair_cache_hit_rate, "ratio");
        r.push("engine.phase_share.foraging", self.phase_share[0], "ratio");
        r.push(
            "engine.phase_share.navigation",
            self.phase_share[1],
            "ratio",
        );
        r.push(
            "engine.phase_share.sensemaking",
            self.phase_share[2],
            "ratio",
        );
        r.push("shared_cache.hit_rate", self.shared_hit_rate, "ratio");
        r.push(
            "shared_cache.evictions_per_req",
            self.evictions_per_req,
            "count/req",
        );
        r.push(
            "shared_cache.cross_session_hits_per_req",
            self.cross_session_hits_per_req,
            "count/req",
        );
        r.push("scheduler.mean_batch", self.mean_batch, "count");
        r.push("scheduler.largest_batch", self.largest_batch, "count");
        r.push("scheduler.rescues", self.rescues, "count");
        r.push(
            "store.backend_fetches_per_req",
            self.backend_fetches_per_req,
            "count/req",
        );
        r.push("setup.terrain_s", self.setup.terrain_s, "s");
        r.push("setup.pyramid_s", self.setup.pyramid_s, "s");
        r.push("setup.signatures_s", self.setup.signatures_s, "s");
        r.push("setup.study_s", self.setup.study_s, "s");
        r.push("setup.svm_s", self.setup.svm_s, "s");
        r.push("setup.bind_s", self.setup.bind_s, "s");
        r.push("trace.closure_frac", self.closure_frac, "ratio");
        r.push("trace.overhead_frac", self.overhead_frac, "ratio");
    }
}

/// Engine builds timed for `engine.build_us`.
const ENGINE_BUILDS: usize = 32;

/// Times [`ENGINE_BUILDS`] calls of `build` as `engine.build` spans and
/// returns their median, µs.
pub fn time_engine_builds(tracer: &mut Tracer, build: impl Fn() -> PredictionEngine) -> f64 {
    let mut builds: Vec<f64> = (0..ENGINE_BUILDS)
        .map(|_| {
            let t = Instant::now();
            drop(std::hint::black_box(build()));
            let d = t.elapsed();
            tracer.record("engine.build", d, crate::trace::NO_REQUEST);
            d.as_secs_f64() * 1e6
        })
        .collect();
    crate::metrics::median(&mut builds)
}

/// Rounds of the untraced and traced copies behind `trace.overhead_frac`.
pub const OVERHEAD_ROUNDS: usize = 5;

/// Runs `copy(false)` (untraced) and `copy(true)` (traced) in turn,
/// [`OVERHEAD_ROUNDS`] times each, and returns the median ratio of the
/// calling thread's CPU time traced to untraced, less one. CPU time
/// rather than wall time, and alternation, keep other tenants of a
/// shared host out of the ratio.
pub fn tracing_overhead(mut copy: impl FnMut(bool)) -> f64 {
    let mut cpu_of = |on: bool| {
        let before = crate::osstat::this_thread();
        copy(on);
        crate::osstat::this_thread().since(before).cpu_ns as f64
    };
    let mut ratios: Vec<f64> = (0..OVERHEAD_ROUNDS)
        .map(|_| {
            let untraced = cpu_of(false);
            let traced = cpu_of(true);
            ratio(traced, untraced)
        })
        .collect();
    crate::metrics::median(&mut ratios) - 1.0
}

/// Shared-cache counters accumulated since `earlier`.
pub fn shared_since(now: SharedCacheStats, earlier: SharedCacheStats) -> SharedCacheStats {
    SharedCacheStats {
        hits: now.hits.saturating_sub(earlier.hits),
        misses: now.misses.saturating_sub(earlier.misses),
        cross_session_hits: now
            .cross_session_hits
            .saturating_sub(earlier.cross_session_hits),
        evictions: now.evictions.saturating_sub(earlier.evictions),
    }
}

/// Scheduler counters accumulated since `earlier` (the largest batch
/// is the later snapshot's).
pub fn scheduler_since(now: SchedulerStats, earlier: SchedulerStats) -> SchedulerStats {
    SchedulerStats {
        batches: now.batches.saturating_sub(earlier.batches),
        jobs: now.jobs.saturating_sub(earlier.jobs),
        largest_batch: now.largest_batch,
        batched_candidates: now
            .batched_candidates
            .saturating_sub(earlier.batched_candidates),
        rescues: now.rescues.saturating_sub(earlier.rescues),
    }
}

/// The end-to-end metrics of a wire run, all but `setup_s`.
pub fn wire_end_to_end(run: &WireRun) -> EndToEnd {
    let n = run.answered as f64;
    let mut e = EndToEnd {
        hit_rate: ratio(run.hits as f64, n),
        sim_latency_ms: ratio(run.sim_latency_ns as f64 / 1e6, n),
        ok_frac: 1.0 - ratio(run.failed as f64, run.attempted as f64),
        peak_rss_mb: crate::osstat::peak_rss_mb(),
        ..EndToEnd::default()
    };
    e.set_units(&run.units.summary());
    e
}
