//! Distance-based wireless loss.
//!
//! The paper estimates wireless loss with "a distance-based wireless loss
//! model \[RoadTrain\], which utilizes a distance-loss lookup table based on
//! \[Anwar et al.\]". We reproduce that shape: negligible packet error rate
//! (PER) at close range, rising steeply toward the 500 m maximum
//! communication range.

/// The default distance→PER lookup table, `(distance_m, per)` pairs in
/// increasing distance order. Values follow the 802.11bd highway evaluation
/// shape of Anwar et al. (VTC 2019).
pub const DEFAULT_LOOKUP: &[(f32, f32)] = &[
    (0.0, 0.005),
    (50.0, 0.01),
    (100.0, 0.03),
    (150.0, 0.06),
    (200.0, 0.10),
    (250.0, 0.16),
    (300.0, 0.26),
    (350.0, 0.40),
    (400.0, 0.58),
    (450.0, 0.78),
    (500.0, 0.95),
];

/// A wireless loss model mapping transmitter–receiver distance to per-packet
/// error probability.
#[derive(Debug, Clone, PartialEq)]
pub enum LossModel {
    /// The idealistic, loss-free channel of Fig. 2(a) / Table II.
    None,
    /// Distance-based lookup with linear interpolation (Fig. 2(b) /
    /// Table III). Distances beyond the last entry get PER 1.0.
    Distance(Vec<(f32, f32)>),
}

/// Why a distance→PER table is malformed; see [`LossModel::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossTableError {
    /// The table has no entries.
    Empty,
    /// Entry `index` holds a NaN or infinite distance or PER.
    NonFinite {
        /// Position of the offending entry.
        index: usize,
    },
    /// Entry `index`'s distance does not exceed its predecessor's
    /// (unsorted table or repeated breakpoint).
    NotIncreasing {
        /// Position of the offending entry.
        index: usize,
    },
    /// Entry `index`'s PER is not a probability.
    PerOutOfRange {
        /// Position of the offending entry.
        index: usize,
    },
}

impl std::fmt::Display for LossTableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LossTableError::Empty => write!(f, "loss table is empty"),
            LossTableError::NonFinite { index } => {
                write!(f, "loss table entry {index} is not finite")
            }
            LossTableError::NotIncreasing { index } => write!(
                f,
                "loss table entry {index}: distances must be strictly increasing"
            ),
            LossTableError::PerOutOfRange { index } => {
                write!(f, "loss table entry {index}: PER must lie in [0, 1]")
            }
        }
    }
}

impl std::error::Error for LossTableError {}

impl LossModel {
    /// The paper's default distance-based model.
    pub fn distance_default() -> Self {
        LossModel::Distance(DEFAULT_LOOKUP.to_vec())
    }

    /// Checks a lookup table against what [`LossModel::per`] reads it as:
    /// non-empty, every entry finite, distances strictly increasing, PER in
    /// `[0, 1]`. `per` itself takes any table as it comes (an unsorted one is
    /// silently misread, a non-finite one can yield NaN, and a NaN PER loses
    /// every packet), so configs are checked where they enter —
    /// `RuntimeConfig::validate` calls this. [`LossModel::None`] is always
    /// valid.
    pub fn validate(&self) -> Result<(), LossTableError> {
        let LossModel::Distance(table) = self else { return Ok(()) };
        if table.is_empty() {
            return Err(LossTableError::Empty);
        }
        let mut previous = f32::NEG_INFINITY;
        for (index, &(d, p)) in table.iter().enumerate() {
            if !(d.is_finite() && p.is_finite()) {
                return Err(LossTableError::NonFinite { index });
            }
            if d <= previous {
                return Err(LossTableError::NotIncreasing { index });
            }
            if !(0.0..=1.0).contains(&p) {
                return Err(LossTableError::PerOutOfRange { index });
            }
            previous = d;
        }
        Ok(())
    }

    /// Packet error rate at `distance_m` meters.
    ///
    /// Lookup tables interpolate linearly between entries; distances past the
    /// last entry lose every packet (out of range).
    ///
    /// The scan enters a segment only with `d0 < distance_m <= d1` (the
    /// previous test `distance_m <= d0` has just failed), so a repeated or
    /// out-of-order breakpoint is skipped rather than divided by: `d1 - d0`
    /// is positive whenever it is used. Only non-finite entries can make the
    /// result NaN; [`LossModel::validate`] rejects those.
    pub fn per(&self, distance_m: f32) -> f32 {
        match self {
            LossModel::None => 0.0,
            LossModel::Distance(table) => {
                if table.is_empty() {
                    return 0.0;
                }
                if distance_m <= table[0].0 {
                    return table[0].1;
                }
                for w in table.windows(2) {
                    if distance_m <= w[1].0 {
                        return interpolate(w[0], w[1], distance_m);
                    }
                }
                1.0
            }
        }
    }

    /// Bounds `(per_lo, per_hi)` containing [`LossModel::per`]`(d)` for
    /// every `d` in `[d_lo, d_hi]` — what lets the packet loop settle an
    /// attempt from its draw alone while the link distance is only known to
    /// an interval. Requires a table that passes [`LossModel::validate`]
    /// and `d_lo <= d_hi`; the PER column need not be monotone.
    ///
    /// Sound against `per`'s own rounding, not just the ideal interpolant:
    /// inside one table segment every operation of `p0 + t * (p1 - p0)` is
    /// monotone in `d`, so the computed PER over a sub-interval lies between
    /// its values at the two ends. The bounds are therefore the extremes of
    /// `per` at `d_lo`, at `d_hi`, and on both sides of every breakpoint in
    /// between: `per(d_k)` (the computed end of the segment on its left) and
    /// the table value itself (where the segment on its right starts). One
    /// walk over the table finds them all, from the segment of `d_lo` to
    /// that of `d_hi`.
    pub fn per_bounds(&self, d_lo: f32, d_hi: f32) -> (f32, f32) {
        let LossModel::Distance(table) = self else { return (0.0, 0.0) };
        let Some(&(_, p_first)) = table.first() else { return (0.0, 0.0) };
        // `per(d)`, given the first breakpoint `k` with `d <= d_k` (the
        // table's length when there is none) — the segment `per` picks.
        let per_before = |k: usize, d: f32| match k {
            0 => p_first,
            k if k == table.len() => 1.0,
            k => interpolate(table[k - 1], table[k], d),
        };
        let mut k = table.iter().position(|&(d, _)| d_lo <= d).unwrap_or(table.len());
        let start = per_before(k, d_lo);
        let (mut lo, mut hi) = (start, start);
        while let Some(&(d, p)) = table.get(k).filter(|&&(d, _)| d <= d_hi) {
            let left = per_before(k, d);
            lo = lo.min(left).min(p);
            hi = hi.max(left).max(p);
            k += 1;
        }
        // `d_hi` on a breakpoint reads the segment that ends there, already
        // counted as that breakpoint's left side.
        if !(k > 0 && table[k - 1].0 == d_hi) {
            let end = per_before(k, d_hi);
            lo = lo.min(end);
            hi = hi.max(end);
        }
        (lo, hi)
    }

    /// Probability a packet is delivered within `1 + retx` attempts at
    /// `distance_m`: `1 - per^(1 + retx)`.
    pub fn delivery_prob(&self, distance_m: f32, retx: u32) -> f32 {
        let per = self.per(distance_m);
        1.0 - per.powi(retx as i32 + 1)
    }

    /// Samples one PER uniformly from the table entries — how the paper
    /// models the backend links of ProxSkip and RSU-L under wireless loss
    /// ("communications suffer from a wireless loss uniformly sampled from
    /// the distance-loss lookup table").
    ///
    /// Returns 0 for [`LossModel::None`].
    pub fn sample_uniform_per<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        match self {
            LossModel::None => 0.0,
            LossModel::Distance(table) => {
                if table.is_empty() {
                    0.0
                } else {
                    use rand::RngExt;
                    table[rng.random_range(0..table.len())].1
                }
            }
        }
    }
}

/// The linear interpolation [`LossModel::per`] evaluates at `d` on the
/// table segment from `(d0, p0)` to `(d1, p1)`.
fn interpolate((d0, p0): (f32, f32), (d1, p1): (f32, f32), d: f32) -> f32 {
    let t = (d - d0) / (d1 - d0);
    p0 + t * (p1 - p0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn none_is_lossless() {
        assert_eq!(LossModel::None.per(100.0), 0.0);
        assert_eq!(LossModel::None.delivery_prob(499.0, 0), 1.0);
    }

    #[test]
    fn lookup_monotone_in_distance() {
        let m = LossModel::distance_default();
        let mut last = -1.0;
        for d in (0..=550).step_by(10) {
            let p = m.per(d as f32);
            assert!(p >= last, "PER must not decrease with distance");
            assert!((0.0..=1.0).contains(&p));
            last = p;
        }
    }

    #[test]
    fn interpolation_between_entries() {
        let m = LossModel::Distance(vec![(0.0, 0.0), (100.0, 0.2)]);
        assert!((m.per(50.0) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn out_of_range_loses_everything() {
        let m = LossModel::distance_default();
        assert_eq!(m.per(501.0), 1.0);
        assert_eq!(m.per(10_000.0), 1.0);
    }

    #[test]
    fn retransmissions_boost_delivery() {
        let m = LossModel::distance_default();
        let p0 = m.delivery_prob(400.0, 0);
        let p3 = m.delivery_prob(400.0, 3);
        assert!(p3 > p0);
        // PER 0.58 at 400 m: delivery within 4 attempts = 1 - 0.58^4
        assert!((p3 - (1.0 - 0.58f32.powi(4))).abs() < 1e-5);
    }

    #[test]
    fn validate_names_what_is_wrong() {
        assert_eq!(LossModel::None.validate(), Ok(()));
        assert_eq!(LossModel::distance_default().validate(), Ok(()));
        let table = |entries: &[(f32, f32)]| LossModel::Distance(entries.to_vec());
        assert_eq!(table(&[]).validate(), Err(LossTableError::Empty));
        assert_eq!(
            table(&[(0.0, 0.1), (50.0, f32::NAN)]).validate(),
            Err(LossTableError::NonFinite { index: 1 })
        );
        assert_eq!(
            table(&[(0.0, 0.1), (f32::INFINITY, 0.2)]).validate(),
            Err(LossTableError::NonFinite { index: 1 })
        );
        assert_eq!(
            table(&[(0.0, 0.1), (50.0, 0.2), (50.0, 0.3)]).validate(),
            Err(LossTableError::NotIncreasing { index: 2 })
        );
        assert_eq!(
            table(&[(100.0, 0.1), (50.0, 0.2)]).validate(),
            Err(LossTableError::NotIncreasing { index: 1 })
        );
        assert_eq!(
            table(&[(0.0, -0.1)]).validate(),
            Err(LossTableError::PerOutOfRange { index: 0 })
        );
        assert!(table(&[(0.0, 0.0), (500.0, 1.0)]).validate().is_ok());
    }

    #[test]
    fn repeated_and_unsorted_breakpoints_never_divide_by_zero() {
        // A table that bypassed `validate`: `per` stays a number everywhere,
        // the repeated breakpoint acting as a step.
        let m = LossModel::Distance(vec![
            (0.0, 0.1),
            (100.0, 0.2),
            (100.0, 0.6),
            (80.0, 0.9),
            (200.0, 0.8),
        ]);
        for k in 0..=2500 {
            let d = k as f32 * 0.1;
            assert!(m.per(d).is_finite(), "per({d}) = {}", m.per(d));
        }
        assert_eq!(m.per(100.0), 0.2);
        assert!(m.per(100.001) >= 0.6);
    }

    #[test]
    fn per_bounds_bracket_the_table() {
        let m = LossModel::distance_default();
        // Inside one segment: the two ends.
        assert_eq!(m.per_bounds(310.0, 330.0), (m.per(310.0), m.per(330.0)));
        // Across a breakpoint, and past the last entry.
        let (lo, hi) = m.per_bounds(340.0, 360.0);
        assert!(lo <= m.per(340.0) && hi >= m.per(360.0) && lo <= 0.40 && 0.40 <= hi);
        assert_eq!(m.per_bounds(490.0, 510.0), (m.per(490.0), 1.0));
        assert_eq!(m.per_bounds(600.0, 700.0), (1.0, 1.0));
        // A dip between the ends is found — on both sides of its
        // breakpoint: the falling segment's computed end lands an ulp
        // under the table value the rising one starts from.
        let dip = LossModel::Distance(vec![(0.0, 0.5), (100.0, 0.1), (200.0, 0.5)]);
        assert!(dip.per(100.0) < 0.1);
        assert_eq!(dip.per_bounds(90.0, 110.0).0, dip.per(100.0));
        assert_eq!(dip.per_bounds(100.0, 110.0), (dip.per(100.0), dip.per(110.0)));
        assert_eq!(LossModel::None.per_bounds(0.0, 1e6), (0.0, 0.0));
    }

    #[test]
    fn uniform_sample_comes_from_table() {
        let m = LossModel::distance_default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let p = m.sample_uniform_per(&mut rng);
            assert!(DEFAULT_LOOKUP.iter().any(|&(_, v)| (v - p).abs() < 1e-9));
        }
    }
}
