//! Frames are shared, never copied.
//!
//! A [`Frame`]'s one payload — the speed, navigation scalars and
//! waypoints, then the packed BEV block counts, in one `Arc<[f32]>` — is
//! an immutable shared slice, so every hand-over LbChat makes — a cell
//! taking the scenario's datasets, a coreset cloned into a chat session,
//! two coresets merged, the peer's coreset folded into the local dataset
//! (§III-D) — moves handles. This file holds each of those to pointer
//! equality with its source, checks that the scenario recorded one buffer
//! per frame, and then holds a whole quick-scale LbChat cell to the
//! strongest form of the claim: when it ends, every frame any vehicle
//! holds is one of the scenario's own buffers, i.e. the run allocated no
//! frame buffer at all.

use driving::Frame;
use experiments::methods::{lbchat_algorithm, lbchat_config, runtime_config};
use experiments::{Condition, Scale, Scenario};
use lbchat::prelude::{ObsSink, Runtime};
use lbchat::{Coreset, WeightedDataset};
use std::collections::BTreeSet;

fn shares_payload(a: &Frame, b: &Frame) -> bool {
    address(a) == address(b)
}

fn all_shared(copies: &[Frame], sources: &[Frame]) -> bool {
    copies.len() == sources.len()
        && copies
            .iter()
            .zip(sources)
            .all(|(a, b)| shares_payload(a, b))
}

/// The address of `frame`'s payload, which its scalars open.
fn address(frame: &Frame) -> usize {
    frame.scalars().as_ptr() as usize
}

#[test]
fn hand_overs_share_and_a_cell_allocates_no_frame_buffers() {
    let s = Scenario::build(Scale::quick());
    let fixture: Vec<&Frame> = s
        .datasets
        .iter()
        .flat_map(WeightedDataset::samples)
        .collect();
    assert!(
        fixture.len() > 100,
        "the scenario must have recorded frames: {}",
        fixture.len()
    );

    // What every cell starts with.
    let datasets = s.datasets.clone();
    for (copy, source) in datasets.iter().zip(&s.datasets) {
        assert!(all_shared(copy.samples(), source.samples()));
        assert_eq!(copy, source, "and equality is still by content");
    }
    // The evaluation set is sampled from the datasets: it shares with them too.
    let owned: BTreeSet<usize> = fixture.iter().map(|f| address(f)).collect();
    assert_eq!(
        owned.len(),
        fixture.len(),
        "one buffer per frame, and the fixture's own buffers are all distinct"
    );
    assert!(s.eval.iter().map(address).all(|a| owned.contains(&a)));

    // Coreset clone / merge and §III-D's expansion.
    let (a, b) = (
        &s.datasets[0].samples()[..40],
        &s.datasets[1].samples()[..25],
    );
    let mine = Coreset::new(a.to_vec(), vec![2.0; a.len()]);
    let theirs = Coreset::new(b.to_vec(), vec![3.0; b.len()]);
    assert!(all_shared(mine.clone().samples(), a));
    let merged = mine.clone().merge(theirs.clone());
    assert!(all_shared(&merged.samples()[..a.len()], a));
    assert!(all_shared(&merged.samples()[a.len()..], b));
    let mut local = WeightedDataset::uniform(a.to_vec());
    local.absorb_coreset(&theirs);
    assert!(all_shared(&local.samples()[a.len()..], b));

    // A whole LbChat cell at the scenario's quick scale.
    let rt = Runtime::new(runtime_config(&s, Condition::NoLoss, ObsSink::disabled()));
    let mut algo = lbchat_algorithm(&s, lbchat_config(&s));
    let metrics = rt
        .run(&mut algo, &s.trace, &s.eval)
        .expect("the scenario hosts its fleet");
    assert!(
        metrics.coreset_receives > 0,
        "the cell must have exchanged coresets"
    );

    let mut held = 0usize;
    for i in 0..s.scale.n_vehicles {
        let node = algo.node(i);
        for frame in node
            .vehicle
            .dataset()
            .samples()
            .iter()
            .chain(node.coreset().samples())
        {
            assert!(
                owned.contains(&address(frame)),
                "vehicle {i} holds a frame buffer the scenario did not record"
            );
        }
        held += node.vehicle.dataset().len();
    }
    assert!(
        held > fixture.len(),
        "datasets must have expanded: {held} vs {}",
        fixture.len()
    );
}
