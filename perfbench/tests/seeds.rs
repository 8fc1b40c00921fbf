//! Seeded inputs: the same run seed reproduces every workload's input
//! fingerprint, and another seed changes it.

use fc_perfbench::inputs::{
    crowd_fingerprint, crowd_variants, pan_fingerprint, pan_start_row, paper_fingerprint,
    paper_trace_order, Serpentine, CROWD_PER_GENERATOR, CROWD_STEPS, CROWD_VARIANTS, PAN_BAND_ROWS,
};
use fc_sim::zoo::ZOO_NAMES;
use fc_tiles::Geometry;

/// The geometry of the synthetic multi-user pyramid.
fn synth_geometry() -> Geometry {
    Geometry::new(6, 1024, 1024, 16, 16)
}

#[test]
fn paper_plan_follows_the_seed() {
    let n = 54;
    assert_eq!(paper_fingerprint(7, n), paper_fingerprint(7, n));
    assert_ne!(paper_fingerprint(7, n), paper_fingerprint(8, n));
    let mut order = paper_trace_order(7, n);
    assert_ne!(order, (0..n).collect::<Vec<_>>());
    order.sort_unstable();
    assert_eq!(
        order,
        (0..n).collect::<Vec<_>>(),
        "a permutation of the traces"
    );
}

#[test]
fn pan_plan_follows_the_seed() {
    let g = synth_geometry();
    assert_eq!(pan_fingerprint(7, g, 1000), pan_fingerprint(7, g, 1000));
    assert_ne!(pan_fingerprint(7, g, 1000), pan_fingerprint(8, g, 1000));
    for seed in 0..100 {
        let r = pan_start_row(seed, 64);
        assert!(r + PAN_BAND_ROWS <= 64, "band wraps: {r}");
    }
}

#[test]
fn crowd_plan_follows_the_seed() {
    let g = synth_geometry();
    let a = crowd_variants(7, g);
    assert_eq!(a.len(), CROWD_VARIANTS);
    for crowd in &a {
        assert_eq!(crowd.len(), ZOO_NAMES.len() * CROWD_PER_GENERATOR);
        assert!(crowd.iter().all(|w| w.len() == CROWD_STEPS));
    }
    assert_ne!(crowd_fingerprint(&a[..1]), crowd_fingerprint(&a[1..2]));
    assert_eq!(
        crowd_fingerprint(&a),
        crowd_fingerprint(&crowd_variants(7, g))
    );
    assert_ne!(
        crowd_fingerprint(&a),
        crowd_fingerprint(&crowd_variants(8, g))
    );
}

#[test]
fn serpentine_sweeps_its_band_and_wraps() {
    let g = synth_geometry();
    let (rows, cols) = g.tiles_at(g.levels - 1);
    // A band that starts near the bottom edge wraps to the top rows.
    let start = rows - 3;
    let mut s = Serpentine::new(g, start);
    let band: Vec<u32> = (0..PAN_BAND_ROWS).map(|i| (start + i) % rows).collect();
    let steps = (PAN_BAND_ROWS * cols) as usize;
    assert_eq!(s.sweep_len(), steps);
    let mut seen = std::collections::HashSet::new();
    let mut sweeps: Vec<Vec<(u32, u32)>> = vec![Vec::new(); 2];
    for i in 0..2 * steps {
        let (t, mv) = s.next_step();
        assert_eq!(mv.is_none(), i == 0);
        assert!(band.contains(&t.y), "row {} outside the band", t.y);
        assert!(t.x < cols);
        seen.insert((t.y, t.x));
        sweeps[i / steps].push((t.y, t.x));
    }
    assert_eq!(seen.len(), steps, "every tile of the band is visited");
    assert_eq!(sweeps[0], sweeps[1], "the walk repeats after one sweep");
}
