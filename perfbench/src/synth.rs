//! The synthetic multi-user pyramid and its two engines, rebuilt from
//! public calls in the shape the multi-user experiments use: a 1024²
//! base, 6 levels and 16-cell tiles with one attribute (5,460 tiles),
//! and cheap deterministic 8-bin histogram signatures for the SB model.
//! The backend charges the paper's SciDB-like simulated latency, so
//! `sim_latency_ms` follows the paper's model on every workload.

use crate::layers::{timed, SetupTimes};
use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    AbRecommender, AllocationStrategy, EngineConfig, PredictionEngine, SbConfig, SbRecommender,
};
use fc_tiles::{Geometry, Move, Pyramid, PyramidBuilder, PyramidConfig};
use std::sync::Arc;

const SIDE: usize = 1024;
const LEVELS: u8 = 6;
const TILE: usize = 16;

/// Builds the pyramid, filling the raw-array, pyramid and signature
/// spans of `times`.
pub fn pyramid(times: &mut SetupTimes) -> Arc<Pyramid> {
    let (base, terrain_s) = timed(|| {
        let schema = fc_array::Schema::grid2d("MU", SIDE, SIDE, &["v"]).expect("schema");
        let data: Vec<f64> = (0..SIDE * SIDE)
            .map(|i| ((i as f64 * 0.19).sin().abs() + (i % SIDE) as f64 / SIDE as f64) / 2.0)
            .collect();
        fc_array::DenseArray::from_vec(schema, data).expect("base array")
    });
    let (p, pyramid_s) = timed(|| {
        Arc::new(
            PyramidBuilder::new()
                .build(&base, &PyramidConfig::scidb_like(LEVELS, TILE, &["v"]))
                .expect("pyramid builds"),
        )
    });
    let ((), signatures_s) = timed(|| {
        for id in p.geometry().all_tiles() {
            let mut h = [0.0f64; 8];
            h[(id.x as usize)
                .wrapping_mul(7)
                .wrapping_add(id.y as usize * 3)
                % 8] = 0.7;
            h[(id.level as usize + id.x as usize) % 8] += 0.3;
            p.store()
                .put_meta(id, SignatureKind::Hist1D.meta_name(), h.to_vec());
        }
    });
    times.terrain_s = terrain_s;
    times.pyramid_s = pyramid_s;
    times.signatures_s = signatures_s;
    p
}

fn engine(g: Geometry, strategy: AllocationStrategy) -> PredictionEngine {
    let r = Move::PanRight.index() as u16;
    let traces: Vec<Vec<u16>> = vec![vec![r; 50]];
    let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
    PredictionEngine::new(
        g,
        AbRecommender::train(refs, 3),
        SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
        PhaseSource::Heuristic,
        EngineConfig {
            strategy,
            ..EngineConfig::default()
        },
    )
}

/// The AB-only engine: predict is a few microseconds, so the wire path
/// dominates the serving time.
pub fn ab_only_engine(g: Geometry) -> PredictionEngine {
    engine(g, AllocationStrategy::AbOnly)
}

/// The Updated-allocation engine with Hist1D signatures.
pub fn updated_engine(g: Geometry) -> PredictionEngine {
    engine(g, AllocationStrategy::Updated)
}
