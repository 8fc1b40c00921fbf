//! `pan-flood`: the wire path with cheap prediction.
//!
//! The synthetic 5,460-tile pyramid served by the epoll reactor with
//! the default multi-user core (shared cache of 4,096 tiles, batched
//! predicts) and the AB-only engine at k = 2. The connection is one
//! long serpentine pan session over a band of rows that starts at a
//! seeded row; one sweep of the band is the workload's unit. Predict costs a few microseconds and the bands fit the
//! shared cache, so readiness, framing, the codec, syscalls and
//! wake-ups are most of the serving time, and the cache is read-mostly.

use crate::check::Expected;
use crate::inproc::Pipeline;
use crate::inputs::{pan_start_row, Serpentine};
use crate::layers::{
    repeat_setups, scheduler_since, shared_since, time_engine_builds, timed, tracing_overhead,
    wire_end_to_end, CopyTotals, Layers, SetupTimes,
};
use crate::metrics::Report;
use crate::synth;
use crate::trace::Tracer;
use crate::wire::{self, Next, Sessions};
use fc_core::{
    BatchConfig, DatasetRegistry, Middleware, MultiUserCache, PredictScheduler, RegistryConfig,
    SharedSessionHandle,
};
use fc_server::{EngineFactory, MultiUserServing, Server, ServerConfig};
use fc_tiles::Pyramid;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Prefetch budget each session asks for.
const K: u32 = 2;
/// Set-ups per untraced run; `setup_s` is their median. A set-up takes
/// about 40 ms, short enough for a burst of other tenants' work to
/// cover several in a row, and the first two of a process run slower
/// while the allocator settles; the median of many is what repeats.
const SETUP_REPEATS: usize = 25;
/// Requests served by each round of the in-process copy.
const COPY_REQUESTS: usize = 10_000;

fn server_config() -> ServerConfig {
    ServerConfig {
        reactor: true,
        multi_user: Some(MultiUserServing::default()),
        ..ServerConfig::default()
    }
}

/// The pyramid, engine factory and live reactor server.
struct Served {
    pyramid: Arc<Pyramid>,
    factory: EngineFactory,
    server: Server,
    times: SetupTimes,
}

/// Builds the pyramid and binds the reactor server.
fn setup() -> Served {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let pyramid = synth::pyramid(&mut times);
    let g = pyramid.geometry();
    let factory: EngineFactory = Arc::new(move || synth::ab_only_engine(g));
    let (server, s) = timed(|| {
        Server::bind(
            "127.0.0.1:0",
            pyramid.clone(),
            factory.clone(),
            server_config(),
        )
        .expect("server binds to a local port")
    });
    times.bind_s = s;
    times.total_s = start.elapsed().as_secs_f64();
    Served {
        pyramid,
        factory,
        server,
        times,
    }
}

/// The serpentine walk of `pan-flood` for `seed`.
fn walk(p: &Pyramid, seed: u64) -> Serpentine {
    let g = p.geometry();
    let (rows, _) = g.tiles_at(g.levels - 1);
    Serpentine::new(g, pan_start_row(seed, rows))
}

/// One endless serpentine session.
struct Pan {
    walk: Serpentine,
    /// Tiles requested so far.
    steps: usize,
    opened: bool,
}

impl Sessions for Pan {
    fn k(&self) -> u32 {
        K
    }

    fn next(&mut self) -> Next {
        if !self.opened {
            self.opened = true;
            return Next::Hello;
        }
        self.steps += 1;
        let (tile, mv) = self.walk.next_step();
        Next::Tile(tile, mv)
    }

    fn unit(&self) -> (usize, usize) {
        (0, self.steps.saturating_sub(1) / self.walk.sweep_len())
    }

    fn hit_ok(&mut self, _cache_hit: bool) -> bool {
        // Hits land in a cache shared across sessions and are reported
        // in `hit_rate`; only the isolated caches of `paper-explore`
        // have a per-session reference sequence to check them against.
        true
    }
}

/// Serves the same session through the in-process copy with the
/// server's multi-user wiring: one registry namespace over the whole
/// budget and one predict scheduler.
fn replay_copy(
    s: &Served,
    seed: u64,
    expected: &Expected,
    mut tracer: Option<&mut Tracer>,
) -> CopyTotals {
    let cfg = server_config();
    let mu = cfg.multi_user.clone().unwrap_or_default();
    let registry = DatasetRegistry::new(RegistryConfig {
        budget: mu.cache_capacity,
        shards: mu.shards,
        hotspots: mu.hotspots.unwrap_or_default(),
    });
    let ns = registry.attach("");
    let scheduler = Arc::new(PredictScheduler::new(
        (s.factory)().sb_model().clone(),
        s.pyramid.clone(),
        BatchConfig {
            window: mu.batch_window,
            ..BatchConfig::default()
        },
    ));
    let mut mw = Middleware::new_shared(
        (s.factory)(),
        s.pyramid.clone(),
        cfg.profile,
        cfg.history_cache,
        K as usize,
        SharedSessionHandle::open(
            ns.cache().clone() as Arc<dyn MultiUserCache>,
            Some(scheduler.clone()),
        ),
    );
    let mut walk = walk(&s.pyramid, seed);
    let mut pipe = Pipeline::default();
    let mut totals = CopyTotals::default();
    for req in 0..COPY_REQUESTS {
        let (tile, mv) = walk.next_step();
        match pipe.serve(
            &mut mw,
            tile,
            mv,
            expected,
            tracer.as_deref_mut(),
            req as u64,
        ) {
            Some(sv) => {
                totals.add_request(sv.pair_cache, sv.prefetched, sv.reply_bytes);
                totals.failed += u64::from(!sv.ok);
            }
            None => {
                totals.requests += 1;
                totals.failed += 1;
            }
        }
    }
    totals.add_session(&mw.stats());
    totals
}

/// Runs `pan-flood`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut tracer = trace.then(|| Tracer::with_capacity(1 << 20));
    let s = setup();
    let expected = Expected::for_pyramid(&s.pyramid);
    let mut traced = CopyTotals::default();
    let mut untraced = CopyTotals::default();
    let mut layers = Layers::default();
    if let Some(t) = tracer.as_mut() {
        s.times.record(t);
        layers.setup = s.times;
        layers.build_us = time_engine_builds(t, || (s.factory)());
        layers.overhead_frac = tracing_overhead(|on| {
            let c = replay_copy(&s, seed, &expected, on.then_some(&mut *t));
            if on { &mut traced } else { &mut untraced }.merge(&c);
        });
    }
    let shared_before = s.server.shared_cache_stats().unwrap_or_default();
    let sched_before = s.server.scheduler_stats().unwrap_or_default();
    let reads_before = s.pyramid.store().io_stats().reads;
    let mut pan = Pan {
        walk: walk(&s.pyramid, seed),
        steps: 0,
        opened: false,
    };
    let run = wire::drive(
        s.server.addr(),
        &mut pan,
        &expected,
        Duration::from_secs_f64(seconds),
    )
    .expect("wire run");
    let reads = s.pyramid.store().io_stats().reads - reads_before;
    let mut report = Report {
        attempted: run.attempted + traced.requests + untraced.requests,
        failed: run.failed + traced.failed + untraced.failed,
        ..Report::default()
    };
    report.correct = report.failed == 0;
    match tracer {
        Some(t) => {
            let shared = s.server.shared_cache_stats().unwrap_or_default();
            layers.set_shared(shared_since(shared, shared_before), run.answered);
            let sched = s.server.scheduler_stats().unwrap_or_default();
            layers.set_scheduler(scheduler_since(sched, sched_before));
            layers.set_wire_trace(&run, &t, &traced, reads);
            layers.push_to(&mut report);
            crate::write_trace(&t, "pan-flood", seed, &mut report);
        }
        None => {
            let mut e2e = wire_end_to_end(&run);
            e2e.ok_frac = report.ok_frac();
            let first = s.times.total_s;
            drop(s);
            e2e.setup_s = repeat_setups(first, SETUP_REPEATS, || setup().times.total_s);
            e2e.push_to(&mut report);
        }
    }
    report
}
