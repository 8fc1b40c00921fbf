//! Property test for the χ² pair cache: replay random pan/zoom
//! sequences — with metadata-epoch bumps mid-sequence and periodic
//! cross-session batched jobs — against one long-lived cache, and
//! assert that every result is bit-identical to the locked reference
//! path [`SbRecommender::distances`] in `Exact` mode, and within the
//! documented [`CHI2_RECIPROCAL_EPSILON`] in `Reciprocal` mode. One
//! input starts the table at its floor and grows it to its ceiling
//! mid-walk.

use fc_array::{IoMode, LatencyModel, SimClock};
use fc_core::paircache::{PairCache, FLOOR_SLOTS};
use fc_core::sb::{
    Chi2Kernel, PredictScratch, SbBatchJob, SbConfig, SbRecommender, CHI2_RECIPROCAL_EPSILON,
};
use fc_core::signature::{SignatureKind, SIGNATURE_KINDS};
use fc_tiles::{Geometry, TileId, TileStore};
use proptest::prelude::*;

/// Small deterministic value stream (xorshift64*), non-negative like
/// real histogram signatures.
fn sig_values(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0
        })
        .collect()
}

/// Per-kind signature widths — mixed on purpose (NormalDist is 2-wide).
fn kind_dim(kind: SignatureKind) -> usize {
    match kind {
        SignatureKind::NormalDist => 2,
        _ => 8,
    }
}

/// A 4-level store with synthetic signatures on *most* tiles (every
/// 11th tile is left bare, so "missing metadata" pairs stay covered).
fn synthetic_store(g: Geometry, salt: u64) -> TileStore {
    let s = TileStore::new(g, LatencyModel::free(), IoMode::Simulated, SimClock::new());
    for (i, id) in g.all_tiles().enumerate() {
        if i % 11 == 10 {
            continue;
        }
        for (k, kind) in SIGNATURE_KINDS.iter().enumerate() {
            let seed = salt
                ^ (u64::from(id.level) << 40)
                ^ (u64::from(id.y) << 20)
                ^ u64::from(id.x)
                ^ ((k as u64) << 56);
            s.put_meta(id, kind.meta_name(), sig_values(seed, kind_dim(*kind)));
        }
    }
    s
}

/// Applies one walk step to an anchor, clamped to the geometry.
fn step_anchor(g: Geometry, t: TileId, code: usize) -> TileId {
    let (rows, cols) = g.tiles_at(t.level);
    match code {
        0 => TileId::new(t.level, t.y, (t.x + 1).min(cols - 1)),
        1 => TileId::new(t.level, t.y, t.x.saturating_sub(1)),
        2 => TileId::new(t.level, (t.y + 1).min(rows - 1), t.x),
        3 => TileId::new(t.level, t.y.saturating_sub(1), t.x),
        // Zoom in (deeper level, child coordinates) / zoom out.
        4 if t.level + 1 < g.levels => TileId::new(t.level + 1, t.y * 2, t.x * 2),
        _ if t.level > 0 => TileId::new(t.level - 1, t.y / 2, t.x / 2),
        _ => t,
    }
}

/// The reference set for a step: varies between empty-ish (the anchor
/// itself), a same-level block, and a cross-level mix.
fn roi_for(g: Geometry, t: TileId, code: u8) -> Vec<TileId> {
    match code {
        0 => vec![t],
        1 => {
            let (rows, cols) = g.tiles_at(t.level);
            vec![
                t,
                TileId::new(t.level, t.y, (t.x + 1).min(cols - 1)),
                TileId::new(t.level, (t.y + 1).min(rows - 1), t.x),
            ]
        }
        2 => vec![TileId::new(t.level.saturating_sub(1), t.y / 2, t.x / 2), t],
        // Includes an out-of-geometry tile: must rank as missing
        // everywhere, cached or not.
        _ => vec![t, TileId::new(7, 0, 0)],
    }
}

fn assert_bits(reference: &[(TileId, f64)], got: &[(TileId, f64)], what: &str) {
    assert_eq!(reference.len(), got.len(), "{what}");
    for (r, g) in reference.iter().zip(got) {
        assert_eq!(r.0, g.0, "{what}");
        assert_eq!(
            r.1.to_bits(),
            g.1.to_bits(),
            "{what}: {:?} {} vs {}",
            r.0,
            r.1,
            g.1
        );
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    /// Exact mode: every step of a random pan/zoom replay — including
    /// epoch bumps and cross-session batches — is bit-identical to the
    /// reference path.
    #[test]
    fn random_walk_exact_is_bit_identical(
        steps in proptest::collection::vec((0usize..6, 0u8..4), 1..20),
        salt in any::<u64>(),
    ) {
        let g = Geometry::new(4, 128, 128, 16, 16);
        let store = synthetic_store(g, salt);
        let sb = SbRecommender::new(SbConfig::all_equal());
        let mut cache = PairCache::new(1 << 12);
        let mut scratch = PredictScratch::default();
        let mut out = Vec::new();
        let mut outs = Vec::new();
        let mut anchor = TileId::new(2, 1, 1);
        for (i, &(mv, roi_code)) in steps.iter().enumerate() {
            anchor = step_anchor(g, anchor, mv);
            // Mid-sequence epoch bump: rewrite one tile's histogram,
            // forcing an index rebuild the cache must track.
            if i % 5 == 4 {
                let vals = sig_values(salt ^ (i as u64) << 32, 8);
                store.put_meta(anchor, SignatureKind::Hist1D.meta_name(), vals);
            }
            let index = store.signature_index().expect("synthetic metadata");
            let cands = g.candidates(anchor, 1);
            let roi = roi_for(g, anchor, roi_code);
            if i % 7 == 3 {
                // Cross-session batch: this session plus a shifted one
                // share the fill and the cache.
                let other = step_anchor(g, anchor, (mv + 1) % 4);
                let cands2 = g.candidates(other, 1);
                let roi2 = roi_for(g, other, (roi_code + 1) % 4);
                let jobs = [
                    SbBatchJob { candidates: &cands, roi: &roi },
                    SbBatchJob { candidates: &cands2, roi: &roi2 },
                ];
                sb.distances_batched_cached_into(&index, &jobs, &mut cache, &mut scratch, &mut outs);
                for (j, job) in jobs.iter().enumerate() {
                    let reference = sb.distances(&store, job.candidates, job.roi);
                    assert_bits(&reference, &outs[j], &format!("step {i} job {j}"));
                }
            } else {
                let reference = sb.distances(&store, &cands, &roi);
                sb.distances_indexed_cached_into(
                    &index, &cands, &roi, &mut cache, &mut scratch, &mut out,
                );
                assert_bits(&reference, &out, &format!("step {i}"));
            }
        }
        let stats = cache.stats();
        prop_assert!(stats.hits + stats.misses > 0, "walk exercised the cache");
    }

    /// Exact mode through a table that starts at the floor and grows
    /// to its ceiling mid-walk: every doubling re-inserts the live
    /// pairs, and every step stays bit-identical to the reference.
    /// Each step scores a 16×16 block of deepest-level candidates
    /// against 15 fixed level-2 tiles plus one varying ROI tile, and
    /// moves the block right by one or two columns. Step 0 thus holds
    /// ≥ 3,840 live pairs and each later step adds ≥ 240 new ones, so
    /// three steps pass half of the 8,192-slot table; consecutive
    /// blocks overlap, so later steps hit.
    #[test]
    fn growing_table_exact_is_bit_identical(
        steps in proptest::collection::vec((1u32..3, 0u32..3, 0u8..3), 3..7),
        salt in any::<u64>(),
    ) {
        let g = Geometry::new(5, 512, 512, 16, 16);
        let store = synthetic_store(g, salt);
        let sb = SbRecommender::new(SbConfig::all_equal());
        let ceiling = 4 * FLOOR_SLOTS;
        let mut cache = PairCache::new(ceiling);
        prop_assert_eq!(cache.capacity(), FLOOR_SLOTS);
        let mut scratch = PredictScratch::default();
        let mut out = Vec::new();
        let (mut x0, mut y0) = (0u32, 0u32);
        for (i, &(dx, dy, roi_code)) in steps.iter().enumerate() {
            x0 += dx;
            y0 += dy;
            let cands: Vec<TileId> = (0..256)
                .map(|k| TileId::new(4, y0 + k / 16, x0 + k % 16))
                .collect();
            let extra = match roi_code {
                // All of level 2: the one-hash-per-candidate fast path.
                0 => TileId::new(2, 3, 3),
                // A candidate-level tile: the general path.
                1 => TileId::new(4, y0, x0),
                // Out of geometry: ranks as missing, cached or not.
                _ => TileId::new(7, 0, 0),
            };
            let roi: Vec<TileId> = (0..15)
                .map(|k| TileId::new(2, k / 4, k % 4))
                .chain([extra])
                .collect();
            // A late epoch bump: the grown table is kept and
            // invalidated by generation.
            if i == 4 {
                let vals = sig_values(salt ^ 0x9E37, 8);
                store.put_meta(cands[0], SignatureKind::Hist1D.meta_name(), vals);
            }
            let index = store.signature_index().expect("synthetic metadata");
            let reference = sb.distances(&store, &cands, &roi);
            sb.distances_indexed_cached_into(
                &index, &cands, &roi, &mut cache, &mut scratch, &mut out,
            );
            assert_bits(&reference, &out, &format!("step {i} at {} slots", cache.capacity()));
        }
        prop_assert_eq!(cache.capacity(), ceiling, "table grew to its ceiling");
        prop_assert!(cache.stats().hits > 0, "overlapping blocks hit");
    }

    /// Reciprocal mode: the same replay stays within the documented
    /// epsilon of the exact reference — for the uncached reciprocal
    /// fill and for the cached fill (reciprocal misses + fused
    /// reassociated combine) alike.
    #[test]
    fn random_walk_reciprocal_is_epsilon_bounded(
        steps in proptest::collection::vec((0usize..6, 0u8..4), 1..12),
        salt in any::<u64>(),
    ) {
        let g = Geometry::new(4, 128, 128, 16, 16);
        let store = synthetic_store(g, salt);
        let exact = SbRecommender::new(SbConfig::all_equal());
        let relaxed = SbRecommender::new(SbConfig {
            kernel: Chi2Kernel::Reciprocal,
            ..SbConfig::all_equal()
        });
        let mut cache = PairCache::new(1 << 12);
        let mut scratch = PredictScratch::default();
        let (mut plain, mut cached) = (Vec::new(), Vec::new());
        let mut anchor = TileId::new(2, 1, 1);
        for (i, &(mv, roi_code)) in steps.iter().enumerate() {
            anchor = step_anchor(g, anchor, mv);
            let index = store.signature_index().expect("synthetic metadata");
            let cands = g.candidates(anchor, 1);
            let roi = roi_for(g, anchor, roi_code);
            let reference = exact.distances(&store, &cands, &roi);
            relaxed.distances_indexed_into(&index, &cands, &roi, &mut scratch, &mut plain);
            relaxed.distances_indexed_cached_into(
                &index, &cands, &roi, &mut cache, &mut scratch, &mut cached,
            );
            for (which, got) in [("uncached", &plain), ("cached", &cached)] {
                for (r, g2) in reference.iter().zip(got) {
                    prop_assert_eq!(r.0, g2.0);
                    let tol = CHI2_RECIPROCAL_EPSILON * r.1.abs().max(1.0);
                    prop_assert!(
                        (r.1 - g2.1).abs() <= tol,
                        "step {} {}: {:?} exact {} vs reciprocal {}",
                        i, which, r.0, r.1, g2.1
                    );
                }
            }
        }
    }
}
