//! Contact-duration prediction and Eq. (5) priority inputs.
//!
//! By exchanging assist messages (location, speed, route for the next few
//! minutes, available bandwidth — 184 bytes in the paper), two vehicles can
//! predict how long they will stay in radio range and how lossy the link
//! will be. Following RoadTrain (the paper's reference \[7\]), the
//! communication priority `z` is a truncated ratio of predicted contact
//! duration to required exchange time, and the delivery probability `p`
//! comes from the distance-based loss model along the predicted routes.

use crate::geom::Vec2;
use crate::loss::LossModel;

/// Estimated properties of an upcoming pairwise contact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContactEstimate {
    /// Predicted remaining contact duration in seconds.
    pub duration: f64,
    /// Truncated duration ratio `z` in `[0, 1]` (RoadTrain's priority).
    pub z: f64,
    /// Predicted probability `p` that a packetized exchange completes.
    pub p: f64,
}

/// Predicts contact durations and exchange-completion probabilities from two
/// shared future routes.
#[derive(Debug, Clone)]
pub struct ContactPredictor {
    range_m: f32,
    max_retx: u32,
    loss: LossModel,
    /// Reference exchange time for the truncated ratio `z` (seconds) —
    /// roughly the time to exchange coresets plus a nominal model payload.
    reference_time: f64,
}

impl ContactPredictor {
    /// Creates a predictor.
    ///
    /// # Panics
    /// Panics if `range_m <= 0` or `reference_time <= 0`.
    pub fn new(range_m: f32, max_retx: u32, loss: LossModel, reference_time: f64) -> Self {
        assert!(range_m > 0.0, "range must be positive");
        assert!(reference_time > 0.0, "reference time must be positive");
        Self { range_m, max_retx, loss, reference_time }
    }

    /// Predicted contact duration given two future routes sampled every `dt`
    /// seconds (same length). Returns the time until the first sample at
    /// which the pair exceeds radio range, or the full horizon if they never
    /// separate.
    ///
    /// # Panics
    /// Panics if the routes have different lengths.
    pub fn contact_duration(&self, route_a: &[Vec2], route_b: &[Vec2], dt: f64) -> f64 {
        assert_eq!(route_a.len(), route_b.len(), "route sample counts must match");
        for (k, (pa, pb)) in route_a.iter().zip(route_b).enumerate() {
            if pa.distance(*pb) > self.range_m {
                return k as f64 * dt;
            }
        }
        route_a.len().saturating_sub(1) as f64 * dt
    }

    /// Full contact estimate for a pair with shared routes.
    ///
    /// `z = min(duration / reference_time, 1)` — longer-than-needed contacts
    /// saturate at 1. `p` is the mean per-packet delivery probability (with
    /// retransmissions) along the in-range portion of the predicted routes.
    ///
    /// Single-pass: each pair distance is computed once, feeding both the
    /// separation check ([`ContactPredictor::contact_duration`]'s job) and
    /// the delivery-probability accumulator, with the `f32`/`f64` op order
    /// of [`ContactPredictor::estimate_reference`] preserved exactly — the
    /// proptests in `tests/properties.rs` pin the two bit-identical.
    ///
    /// # Panics
    /// Panics if the routes have different lengths.
    pub fn estimate(&self, route_a: &[Vec2], route_b: &[Vec2], dt: f64) -> ContactEstimate {
        assert_eq!(route_a.len(), route_b.len(), "route sample counts must match");
        let len = route_a.len();
        // One sweep accumulates the in-range delivery probabilities in the
        // reference's exact f64 addition order while scanning for the first
        // separation. `prev_*` snapshots the accumulators *before* each
        // sample so the never-separate case can retroactively honor the
        // reference's `take(in_range_frames)` window, which may stop one
        // sample short of the full route.
        let mut p_sum = 0.0f64;
        let mut n = 0usize;
        let mut prev_p_sum = 0.0f64;
        let mut prev_n = 0usize;
        let mut sep: Option<usize> = None;
        for (k, (pa, pb)) in route_a.iter().zip(route_b).enumerate() {
            let d = pa.distance(*pb);
            if d > self.range_m {
                sep = Some(k);
                break;
            }
            prev_p_sum = p_sum;
            prev_n = n;
            p_sum += self.loss.delivery_prob(d, self.max_retx) as f64;
            n += 1;
        }
        let (duration, window) = match sep {
            Some(k) => (k as f64 * dt, k),
            None => (len.saturating_sub(1) as f64 * dt, len),
        };
        let z = (duration / self.reference_time).min(1.0);
        // The reference derives its averaging window from `duration / dt`,
        // whose f64 floor can land on `window - 1` (rounding) or, after
        // separation, re-admit any in-range sample inside the window. Select
        // the matching accumulator snapshot; on any window this sweep did
        // not materialize (degenerate `dt`, re-entrant routes), defer to the
        // reference itself rather than approximate it.
        let in_range_frames = ((duration / dt).floor() as usize + 1).min(len);
        let (p_sum, n) = if in_range_frames >= window.min(len) {
            if sep.is_some() && in_range_frames > window + 1 {
                return self.estimate_reference(route_a, route_b, dt);
            }
            (p_sum, n)
        } else if in_range_frames + 1 == window.min(len) {
            (prev_p_sum, prev_n)
        } else {
            return self.estimate_reference(route_a, route_b, dt);
        };
        let p = if n == 0 { 0.0 } else { p_sum / n as f64 };
        ContactEstimate { duration, z, p }
    }

    /// The retained two-pass reference arm for [`ContactPredictor::estimate`]:
    /// a [`ContactPredictor::contact_duration`] sweep followed by a second
    /// delivery-probability sweep over the in-range window. Kept verbatim as
    /// the spec the fused single-pass version is proptested against.
    pub fn estimate_reference(&self, route_a: &[Vec2], route_b: &[Vec2], dt: f64) -> ContactEstimate {
        let duration = self.contact_duration(route_a, route_b, dt);
        let z = (duration / self.reference_time).min(1.0);
        let in_range_frames = ((duration / dt).floor() as usize + 1).min(route_a.len());
        let mut p_sum = 0.0f64;
        let mut n = 0usize;
        for (pa, pb) in route_a.iter().zip(route_b).take(in_range_frames) {
            let d = pa.distance(*pb);
            if d <= self.range_m {
                p_sum += self.loss.delivery_prob(d, self.max_retx) as f64;
                n += 1;
            }
        }
        let p = if n == 0 { 0.0 } else { p_sum / n as f64 };
        ContactEstimate { duration, z, p }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> ContactPredictor {
        ContactPredictor::new(500.0, 3, LossModel::distance_default(), 30.0)
    }

    fn straight_route(start: Vec2, vel: Vec2, n: usize, dt: f64) -> Vec<Vec2> {
        (0..n).map(|k| start + vel * (k as f64 * dt) as f32).collect()
    }

    #[test]
    fn parallel_vehicles_never_separate() {
        let p = predictor();
        let a = straight_route(Vec2::ZERO, Vec2::new(10.0, 0.0), 121, 0.5);
        let b = straight_route(Vec2::new(50.0, 0.0), Vec2::new(10.0, 0.0), 121, 0.5);
        let d = p.contact_duration(&a, &b, 0.5);
        assert!((d - 60.0).abs() < 1e-9, "full horizon expected, got {d}");
        let est = p.estimate(&a, &b, 0.5);
        assert_eq!(est.z, 1.0);
        assert!(est.p > 0.95, "50 m apart should deliver nearly surely");
    }

    #[test]
    fn opposite_vehicles_separate_quickly() {
        let p = predictor();
        // Closing from opposite directions then separating: start 400 m
        // apart moving toward each other at 15 m/s each.
        let a = straight_route(Vec2::ZERO, Vec2::new(15.0, 0.0), 241, 0.5);
        let b = straight_route(Vec2::new(400.0, 0.0), Vec2::new(-15.0, 0.0), 241, 0.5);
        let d = p.contact_duration(&a, &b, 0.5);
        // They meet at ~13.3 s and are 500 m apart again at ~30 s.
        assert!(d > 25.0 && d < 35.0, "got {d}");
        let est = p.estimate(&a, &b, 0.5);
        assert!(est.z < 1.001 && est.z > 0.8);
    }

    #[test]
    fn immediate_out_of_range_gives_zero() {
        let p = predictor();
        let a = straight_route(Vec2::ZERO, Vec2::ZERO, 11, 0.5);
        let b = straight_route(Vec2::new(1000.0, 0.0), Vec2::ZERO, 11, 0.5);
        let est = p.estimate(&a, &b, 0.5);
        assert_eq!(est.duration, 0.0);
        assert_eq!(est.z, 0.0);
    }

    #[test]
    fn closer_pairs_get_higher_p() {
        let p = predictor();
        let a = straight_route(Vec2::ZERO, Vec2::ZERO, 61, 0.5);
        let near = straight_route(Vec2::new(50.0, 0.0), Vec2::ZERO, 61, 0.5);
        let far = straight_route(Vec2::new(450.0, 0.0), Vec2::ZERO, 61, 0.5);
        let e_near = p.estimate(&a, &near, 0.5);
        let e_far = p.estimate(&a, &far, 0.5);
        assert!(e_near.p > e_far.p);
    }

    #[test]
    fn lossless_model_gives_full_p() {
        let p = ContactPredictor::new(500.0, 3, LossModel::None, 30.0);
        let a = straight_route(Vec2::ZERO, Vec2::ZERO, 11, 0.5);
        let b = straight_route(Vec2::new(499.0, 0.0), Vec2::ZERO, 11, 0.5);
        assert_eq!(p.estimate(&a, &b, 0.5).p, 1.0);
    }
}
