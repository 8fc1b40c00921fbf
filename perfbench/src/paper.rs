//! `paper-explore`: the paper's configuration over the wire.
//!
//! The study dataset at the `small` experiment shape (512² terrain,
//! 5 levels, 32-cell tiles: 341 tiles of 4 attributes), the 18-user
//! study, and the full engine: SVM phase classifier, AB n-gram of order
//! 3, SB over all four signatures and the Updated allocation. The
//! server runs its default configuration: isolated per-session caches
//! and k = 5. Each study trace is one session; traces are dealt to the
//! connection pass after pass in a seeded order. A trace's replay is a
//! workload unit whose kind is the trace: the fastest replays of each
//! trace are found one trace at a time, so a trace with costly
//! requests gets its own quiet moments.
//!
//! Sessions are opened with a Hello on a persistent connection rather
//! than a new connection per trace: each Hello gives the session a
//! fresh middleware, exactly as a new connection would, while the
//! threaded server's accept loop polls only every 5 ms, and a
//! connection per trace would measure that sleep.

use crate::check::Expected;
use crate::inproc::Pipeline;
use crate::inputs::paper_trace_order;
use crate::layers::{
    repeat_setups, time_engine_builds, timed, tracing_overhead, wire_end_to_end, CopyTotals,
    Layers, SetupTimes,
};
use crate::metrics::Report;
use crate::trace::Tracer;
use crate::wire::{self, Next, Sessions};
use fc_array::{AggFn, IoMode};
use fc_core::engine::PhaseSource;
use fc_core::signature::attach_signatures;
use fc_core::{
    AbRecommender, AllocationStrategy, EngineConfig, Middleware, PhaseClassifier, PredictionEngine,
    SbConfig, SbRecommender,
};
use fc_server::{EngineFactory, Server, ServerConfig};
use fc_sim::dataset::{DatasetConfig, StudyDataset};
use fc_sim::study::{Study, StudyConfig};
use fc_sim::terrain::{build_ndsi_database, TerrainConfig};
use fc_sim::trace::Trace;
use fc_tiles::{AttrAgg, Pyramid, PyramidBuilder, PyramidConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated study users (three traces each).
const USERS: usize = 18;
/// Prefetch budget each session asks for.
const K: u32 = 5;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// A served study: dataset, traces, engine factory and live server.
struct Served {
    pyramid: Arc<Pyramid>,
    traces: Vec<Trace>,
    factory: EngineFactory,
    server: Server,
    times: SetupTimes,
}

/// Builds the dataset, generates the study, trains the models and
/// binds the server; the same steps as `StudyDataset::build` followed
/// by the satellite-exploration example, timed one call at a time.
fn setup() -> Served {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let cfg = DatasetConfig {
        // The terrain keeps its default seed for every run seed: it
        // decides the study's traces, and with them the SVM training
        // time and the hit rate, which moved set-up time by 2x and the
        // paper-model latency by 15 % across terrain seeds, more than a
        // regression bound can absorb. The run seed orders the traces.
        terrain: TerrainConfig {
            size: 512,
            ..TerrainConfig::default()
        },
        levels: 5,
        tile: 32,
        ..DatasetConfig::default()
    };
    let ((db, ndsi), s) = timed(|| build_ndsi_database(&cfg.terrain));
    times.terrain_s = s;
    let pyr_cfg = PyramidConfig {
        levels: cfg.levels,
        tile_h: cfg.tile,
        tile_w: cfg.tile,
        aggs: vec![
            AttrAgg::new("ndsi_max", AggFn::Max),
            AttrAgg::new("ndsi_min", AggFn::Min),
            AttrAgg::new("ndsi_avg", AggFn::Avg),
            AttrAgg::new("land", AggFn::Avg),
        ],
        latency: cfg.latency,
        io_mode: IoMode::Simulated,
    };
    let (pyramid, s) = timed(|| {
        Arc::new(
            PyramidBuilder::new()
                .build(&ndsi, &pyr_cfg)
                .expect("pyramid builds from the NDSI array"),
        )
    });
    times.pyramid_s = s;
    let ((sift_vocab, dense_vocab), s) = timed(|| attach_signatures(&pyramid, &cfg.signatures));
    times.signatures_s = s;
    pyramid.store().reset_io_stats();
    pyramid.store().clock().reset();
    let ds = StudyDataset {
        pyramid: pyramid.clone(),
        db,
        sift_vocab,
        dense_vocab,
        config: cfg,
    };
    let (study, s) = timed(|| Study::generate(&ds, &StudyConfig { num_users: USERS }));
    times.study_s = s;
    let (classifier, s) = timed(|| {
        let pd = study.phase_dataset();
        PhaseClassifier::train_on_features(&pd.features, &pd.labels)
    });
    times.svm_s = s;
    let moves: Vec<Vec<u16>> = study.traces.iter().map(Trace::move_sequence).collect();
    let ab = AbRecommender::train(moves.iter().map(Vec::as_slice).collect::<Vec<_>>(), 3);
    let g = pyramid.geometry();
    let factory: EngineFactory = Arc::new(move || {
        PredictionEngine::new(
            g,
            ab.clone(),
            SbRecommender::new(SbConfig::all_equal()),
            PhaseSource::Classifier(Box::new(classifier.clone())),
            EngineConfig {
                strategy: AllocationStrategy::Updated,
                ..EngineConfig::default()
            },
        )
    });
    let (server, s) = timed(|| {
        Server::bind(
            "127.0.0.1:0",
            pyramid.clone(),
            factory.clone(),
            ServerConfig::default(),
        )
        .expect("server binds to a local port")
    });
    times.bind_s = s;
    times.total_s = start.elapsed().as_secs_f64();
    Served {
        pyramid,
        traces: study.traces,
        factory,
        server,
        times,
    }
}

/// The connection replays one trace per session, taking the next trace
/// of the seeded deck when its session ends, and checks every reply's
/// hit or miss against the in-process copy's sequence.
struct Deal<'a> {
    traces: &'a [Trace],
    order: &'a [usize],
    dealt: usize,
    /// Current trace and the next step to send.
    current: Option<(usize, usize)>,
    reference: &'a [Vec<bool>],
}

impl Sessions for Deal<'_> {
    fn k(&self) -> u32 {
        K
    }

    fn next(&mut self) -> Next {
        if let Some((t, s)) = self.current {
            if let Some(step) = self.traces[t].steps.get(s) {
                self.current = Some((t, s + 1));
                return Next::Tile(step.tile, if s == 0 { None } else { step.mv });
            }
        }
        let t = self.order[self.dealt % self.order.len()];
        self.dealt += 1;
        self.current = Some((t, 0));
        Next::Hello
    }

    fn unit(&self) -> (usize, usize) {
        (self.current.map_or(0, |(t, _)| t), self.dealt)
    }

    fn hit_ok(&mut self, cache_hit: bool) -> bool {
        self.current
            .is_some_and(|(t, s)| s > 0 && self.reference[t].get(s - 1) == Some(&cache_hit))
    }
}

/// Replays `laps` laps of the deck through the in-process copy, one
/// fresh middleware per trace as the server's Hello makes it. Returns
/// the hit/miss sequence of every trace from the first lap; every
/// sequence must equal `reference` when given, and the first lap's
/// otherwise.
fn replay_copy(
    s: &Served,
    order: &[usize],
    laps: usize,
    expected: &Expected,
    mut tracer: Option<&mut Tracer>,
    reference: Option<&[Vec<bool>]>,
) -> (Vec<Vec<bool>>, CopyTotals) {
    let cfg = ServerConfig::default();
    let mut first: Vec<Vec<bool>> = vec![Vec::new(); s.traces.len()];
    let mut totals = CopyTotals::default();
    let mut pipe = Pipeline::default();
    let mut req = 0u64;
    for lap in 0..laps {
        for &t in order {
            let mut mw = Middleware::new(
                (s.factory)(),
                s.pyramid.clone(),
                cfg.profile,
                cfg.history_cache,
                K as usize,
            );
            let mut seq = Vec::with_capacity(s.traces[t].len());
            for (i, step) in s.traces[t].steps.iter().enumerate() {
                let mv = if i == 0 { None } else { step.mv };
                match pipe.serve(&mut mw, step.tile, mv, expected, tracer.as_deref_mut(), req) {
                    Some(sv) => {
                        seq.push(sv.cache_hit);
                        totals.add_request(sv.pair_cache, sv.prefetched, sv.reply_bytes);
                        totals.failed += u64::from(!sv.ok);
                    }
                    None => {
                        seq.push(false);
                        totals.requests += 1;
                        totals.failed += 1;
                    }
                }
                req += 1;
            }
            totals.add_session(&mw.stats());
            let want = reference.map_or(&first[t], |r| &r[t]);
            if lap > 0 || reference.is_some() {
                totals.failed += seq.iter().zip(want).filter(|(a, b)| a != b).count() as u64;
                totals.failed += seq.len().abs_diff(want.len()) as u64;
            }
            if lap == 0 {
                first[t] = seq;
            }
        }
    }
    (first, totals)
}

/// Runs `paper-explore`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut tracer = trace.then(|| Tracer::with_capacity(1 << 20));
    let s = setup();
    let expected = Expected::for_pyramid(&s.pyramid);
    let order = paper_trace_order(seed, s.traces.len());
    // The wire run must reproduce the in-process copy's hit/miss
    // sequences; in a traced run the copy that sets them is traced.
    let (reference, mut traced) = replay_copy(&s, &order, 1, &expected, tracer.as_mut(), None);
    let mut untraced = CopyTotals::default();
    let mut layers = Layers::default();
    if let Some(t) = tracer.as_mut() {
        s.times.record(t);
        layers.setup = s.times;
        layers.build_us = time_engine_builds(t, || (s.factory)());
        layers.overhead_frac = tracing_overhead(|on| {
            let tr = on.then_some(&mut *t);
            let (_, c) = replay_copy(&s, &order, 1, &expected, tr, Some(&reference));
            if on { &mut traced } else { &mut untraced }.merge(&c);
        });
    }
    let mut deal = Deal {
        traces: &s.traces,
        order: &order,
        dealt: 0,
        current: None,
        reference: &reference,
    };
    let reads_before = s.pyramid.store().io_stats().reads;
    let run = wire::drive(
        s.server.addr(),
        &mut deal,
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
            layers.set_wire_trace(&run, &t, &traced, reads);
            layers.push_to(&mut report);
            crate::write_trace(&t, "paper-explore", seed, &mut report);
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
