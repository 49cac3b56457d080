//! The all-pairs encounter sweep, the one oracle `EncounterGrid` is held
//! to byte for byte: by the unit tests in `src/grid.rs` (which include this
//! file by path) and by the proptests in `grid_equivalence.rs`. The grid's
//! module docs give the argument for why the two agree; those tests are
//! what pins this function: edit it only together with them.

use super::{AgentId, Encounter, MobilityTrace};

/// Every pair of `active` agents within `range_m` of each other at `t`,
/// in `(i, j)` order of their positions in `active`: an O(n²) sweep over
/// the same [`MobilityTrace::position`] calls and the same `f32`
/// `distance <= range_m` test the grid makes.
pub fn sweep(trace: &MobilityTrace, t: f64, range_m: f32, active: &[AgentId]) -> Vec<Encounter> {
    let pos: Vec<_> = active.iter().map(|&a| (a, trace.position(a, t))).collect();
    let mut out = Vec::new();
    for i in 0..pos.len() {
        for j in i + 1..pos.len() {
            let d = pos[i].1.distance(pos[j].1);
            if d <= range_m {
                out.push(Encounter { a: pos[i].0, b: pos[j].0, distance: d });
            }
        }
    }
    out
}
