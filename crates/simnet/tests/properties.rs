//! Property-based tests over the radio simulator's invariants.

use proptest::prelude::*;
use rand::SeedableRng;
use simnet::channel::{Channel, RadioConfig, TransferSpec};
use simnet::contact::ContactPredictor;
use simnet::geom::Vec2;
use simnet::loss::LossModel;
use simnet::trace::MobilityTrace;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn per_is_a_probability_everywhere(d in 0.0f32..2000.0) {
        let m = LossModel::distance_default();
        let p = m.per(d);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((0.0..=1.0).contains(&m.delivery_prob(d, 3)));
    }

    #[test]
    fn transfer_never_beats_ideal_time(bytes in 1usize..2_000_000, d in 0.0f32..400.0) {
        let cfg = RadioConfig::default();
        let ideal = cfg.ideal_transfer_time(bytes);
        let ch = Channel::new(cfg, LossModel::distance_default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let out = ch.run(&TransferSpec::link(bytes, f64::INFINITY), |_| d, &mut rng);
        prop_assert!(out.elapsed() >= ideal - 1e-9,
            "elapsed {} < ideal {}", out.elapsed(), ideal);
    }

    #[test]
    fn lossless_transfer_always_delivers_exactly_at_ideal(bytes in 1usize..1_000_000) {
        let cfg = RadioConfig::default();
        let ideal = cfg.ideal_transfer_time(bytes);
        let ch = Channel::new(cfg, LossModel::None);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let out = ch.run(&TransferSpec::link(bytes, f64::INFINITY), |_| 100.0, &mut rng);
        prop_assert!(out.is_delivered());
        prop_assert!((out.elapsed() - ideal).abs() < 1e-9);
    }

    #[test]
    fn deadline_is_respected(bytes in 1usize..10_000_000, deadline in 0.0f64..5.0) {
        let ch = Channel::new(RadioConfig::default(), LossModel::distance_default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let out = ch.run(&TransferSpec::link(bytes, deadline), |_| 200.0, &mut rng);
        prop_assert!(out.elapsed() <= deadline + 1e-9);
    }

    /// A flat zero-PER table is the loss-free radio in range: a parked
    /// pair's bounded link delivers every payload at its ideal airtime.
    #[test]
    fn flat_zero_per_link_delivers_at_ideal(bytes in 1usize..200_000) {
        let cfg = RadioConfig::default();
        let ideal = cfg.ideal_transfer_time(bytes);
        let ch = Channel::new(cfg, LossModel::Distance(vec![(0.0, 0.0), (500.0, 0.0)]));
        let parked = MobilityTrace::new(2.0, vec![vec![Vec2::ZERO], vec![Vec2::new(200.0, 0.0)]]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let link = parked.pair_track(0, 1).starting_at(0.0);
        let out = ch.run(&TransferSpec::link(bytes, f64::INFINITY), link, &mut rng);
        prop_assert!(out.is_delivered());
        prop_assert!((out.elapsed() - ideal).abs() < 1e-9);
    }

    #[test]
    fn trace_interpolation_is_bounded(
        x0 in 0.0f32..1000.0,
        x1 in 0.0f32..1000.0,
        t in 0.0f64..20.0,
    ) {
        let frames = 41; // 20 s at 2 fps
        let series: Vec<Vec2> = (0..frames)
            .map(|k| Vec2::new(x0 + (x1 - x0) * k as f32 / (frames - 1) as f32, 0.0))
            .collect();
        let trace = MobilityTrace::new(2.0, vec![series]);
        let p = trace.position(0, t);
        let (lo, hi) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
        prop_assert!(p.x >= lo - 1e-3 && p.x <= hi + 1e-3);
    }

    #[test]
    fn contact_duration_monotone_in_range(
        speed in 1.0f32..30.0,
        start in 0.0f32..400.0,
    ) {
        // A receding vehicle: larger radio range always means a contact at
        // least as long.
        let route_a: Vec<Vec2> = (0..241).map(|_| Vec2::ZERO).collect();
        let route_b: Vec<Vec2> =
            (0..241).map(|k| Vec2::new(start + speed * k as f32 * 0.5, 0.0)).collect();
        let short = ContactPredictor::new(300.0, 3, LossModel::None, 30.0)
            .contact_duration(&route_a, &route_b, 0.5);
        let long = ContactPredictor::new(500.0, 3, LossModel::None, 30.0)
            .contact_duration(&route_a, &route_b, 0.5);
        prop_assert!(long >= short);
    }

    #[test]
    fn estimate_fields_are_sane(
        dist in 0.0f32..700.0,
        speed in -20.0f32..20.0,
    ) {
        let route_a: Vec<Vec2> = (0..121).map(|_| Vec2::ZERO).collect();
        let route_b: Vec<Vec2> =
            (0..121).map(|k| Vec2::new(dist + speed * k as f32 * 0.5, 0.0)).collect();
        let p = ContactPredictor::new(500.0, 3, LossModel::distance_default(), 30.0);
        let est = p.estimate(&route_a, &route_b, 0.5);
        prop_assert!(est.duration >= 0.0);
        prop_assert!((0.0..=1.0).contains(&est.z));
        prop_assert!((0.0..=1.0).contains(&est.p));
    }
}

#[test]
fn lossy_links_have_lower_goodput_proportional_to_per() {
    // Statistical check: airtime inflation ≈ 1 / (1 - PER).
    let cfg = RadioConfig::default();
    let ideal = cfg.ideal_transfer_time(1_500_000);
    let ch = Channel::new(cfg, LossModel::distance_default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    // 300 m -> PER 0.26.
    let out = ch.run(&TransferSpec::link(1_500_000, f64::INFINITY), |_| 300.0, &mut rng);
    assert!(out.is_delivered());
    let inflation = out.elapsed() / ideal;
    let expected = 1.0 / (1.0 - 0.26);
    assert!(
        (inflation - expected).abs() < 0.08,
        "inflation {inflation:.3} vs expected {expected:.3}"
    );
}
