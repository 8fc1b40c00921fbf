//! Seeded input generation. The run seed is a benchmark argument; the
//! program under test only ever sees the inputs derived from it.
//!
//! * `paper-explore`: the order in which the study's traces are dealt
//!   (the terrain keeps its default seed; `paper.rs` says why).
//! * `pan-flood`: the start row of the pan band.
//! * `crowd-churn`: the zoo seeds of the 66 lockstep sessions, one per
//!   lap variant.

use fc_sim::zoo::{self, Workload, ZOO_NAMES};
use fc_tiles::{Geometry, Move, TileId};

/// SplitMix64 finaliser: a well-mixed 64-bit value from `x`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a accumulator for input fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds one value in.
    pub fn fold(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds a tile id in.
    pub fn tile(&mut self, t: TileId) {
        self.fold(u64::from(t.level));
        self.fold(u64::from(t.y));
        self.fold(u64::from(t.x));
    }

    /// The fingerprint value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The order in which `n` study traces are dealt: a seeded
/// Fisher–Yates shuffle of `0..n`.
pub fn paper_trace_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = mix(seed ^ 0x0DE4);
    for i in (1..n).rev() {
        state = mix(state);
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Rows of the band one `pan-flood` session sweeps.
pub const PAN_BAND_ROWS: u32 = 8;

/// Start row of the `pan-flood` band on a grid of `rows` rows: a
/// seeded row from which the band fits without wrapping.
pub fn pan_start_row(seed: u64, rows: u32) -> u32 {
    let room = u64::from(rows.saturating_sub(PAN_BAND_ROWS) + 1);
    (mix(seed ^ 0x9A4) % room) as u32
}

/// A serpentine pan over a band of [`PAN_BAND_ROWS`] rows at the
/// deepest level: rightward along a row, down one row, leftward, and
/// back to the band's first row after its last (rows wrap at the
/// bottom edge, so every band has the same size).
#[derive(Debug, Clone)]
pub struct Serpentine {
    level: u8,
    rows: u32,
    cols: u32,
    first_row: u32,
    /// Row offset within the band.
    band_row: u32,
    col: u32,
    rightward: bool,
    started: bool,
}

impl Serpentine {
    /// A sweep starting at the left end of `start_row`.
    pub fn new(g: Geometry, start_row: u32) -> Self {
        let level = g.levels - 1;
        let (rows, cols) = g.tiles_at(level);
        Self {
            level,
            rows,
            cols,
            first_row: start_row % rows,
            band_row: 0,
            col: 0,
            rightward: true,
            started: false,
        }
    }

    /// The next request: the tile and the move that produced it.
    pub fn next_step(&mut self) -> (TileId, Option<Move>) {
        if !self.started {
            self.started = true;
            return (self.tile(), None);
        }
        let mv = match (self.rightward, self.col) {
            (true, c) if c + 1 < self.cols => {
                self.col += 1;
                Move::PanRight
            }
            (false, c) if c > 0 => {
                self.col -= 1;
                Move::PanLeft
            }
            _ => {
                self.rightward = !self.rightward;
                self.band_row = (self.band_row + 1) % PAN_BAND_ROWS.min(self.rows);
                Move::PanDown
            }
        };
        (self.tile(), Some(mv))
    }

    /// Requests in one sweep of the band, after which the walk repeats.
    pub fn sweep_len(&self) -> usize {
        (PAN_BAND_ROWS.min(self.rows) * self.cols) as usize
    }

    fn tile(&self) -> TileId {
        let row = (self.first_row + self.band_row) % self.rows;
        TileId::new(self.level, row, self.col)
    }
}

/// Sessions per zoo generator in `crowd-churn`.
pub const CROWD_PER_GENERATOR: usize = 11;

/// Requests per `crowd-churn` session and lap.
pub const CROWD_STEPS: usize = 512;

/// Variants of the crowd one `crowd-churn` run cycles through, one per
/// lap. The zoo seed decides each generator's shared structure (where a
/// flash crowd converges, how a sweep turns), which moved the cost per
/// request by 10 % between seeds on a two-vCPU virtual machine; a run
/// over several structures averages that out. Four rather than more, so
/// that each variant's lap repeats about seven times in a 30 s run and
/// its fastest repetitions are found (see `crowd.rs`): with eight, the
/// spread of `throughput_rps` over five seeds was 0.09, with four 0.05.
pub const CROWD_VARIANTS: usize = 4;

/// Zoo seed of variant `v` of `crowd-churn` for run seed `seed`.
pub fn crowd_zoo_seed(seed: u64, v: usize) -> u64 {
    mix(seed ^ 0xC40D ^ ((v as u64) << 48))
}

/// The 66 `crowd-churn` sessions of variant `v`, 11 per zoo generator,
/// in roster order.
pub fn crowd_workloads(seed: u64, v: usize, g: Geometry) -> Vec<Workload> {
    let zoo_seed = crowd_zoo_seed(seed, v);
    ZOO_NAMES
        .iter()
        .flat_map(|name| zoo::crowd(name, g, CROWD_STEPS, CROWD_PER_GENERATOR, zoo_seed))
        .collect()
}

/// Every variant of the `crowd-churn` crowd.
pub fn crowd_variants(seed: u64, g: Geometry) -> Vec<Vec<Workload>> {
    (0..CROWD_VARIANTS)
        .map(|v| crowd_workloads(seed, v, g))
        .collect()
}

/// Fingerprint of the `paper-explore` plan for `n` traces.
pub fn paper_fingerprint(seed: u64, n: usize) -> u64 {
    let mut fp = Fingerprint::default();
    for i in paper_trace_order(seed, n) {
        fp.fold(i as u64);
    }
    fp.value()
}

/// Fingerprint of the first `steps` requests of `pan-flood`.
pub fn pan_fingerprint(seed: u64, g: Geometry, steps: usize) -> u64 {
    let mut fp = Fingerprint::default();
    let (rows, _) = g.tiles_at(g.levels - 1);
    let mut s = Serpentine::new(g, pan_start_row(seed, rows));
    for _ in 0..steps {
        let (t, mv) = s.next_step();
        fp.tile(t);
        fp.fold(mv.map_or(u64::MAX, |m| m.index() as u64));
    }
    fp.value()
}

/// Fingerprint of the `crowd-churn` sessions: every tile, move and
/// think time of every variant.
pub fn crowd_fingerprint(variants: &[Vec<Workload>]) -> u64 {
    let mut fp = Fingerprint::default();
    for w in variants.iter().flatten() {
        for (step, think) in w.trace.steps.iter().zip(&w.think) {
            fp.tile(step.tile);
            fp.fold(step.mv.map_or(u64::MAX, |m| m.index() as u64));
            fp.fold(u64::try_from(think.as_nanos()).unwrap_or(u64::MAX));
        }
    }
    fp.value()
}
