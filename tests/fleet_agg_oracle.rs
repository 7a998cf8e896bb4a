//! Differential oracle for `ShardState::agg`.
//!
//! `agg` answers from running totals that `apply_event` and `restore`
//! keep. This test holds it to the plain definition: walk a snapshot of
//! every node, sum its health table's migrated pairs, retired pages and
//! counter pressure, and count the nodes whose `node_view` risk reaches
//! `AT_RISK_PPM`. The seeded streams are the tie-heavy ones of the
//! `top_pages` oracle: sparse ids, bank faults, thresholds 1–5. Each
//! stream is checked every few events of a live run, after a
//! snapshot/restore round trip, after a restore and further events, and
//! as a merge of `node % n` partitions.

mod common;

use common::{descending_arrivals, stream, Shape};
use eccparity_service::rpc::Event;
use eccparity_service::state::{Geometry, ShardAgg, ShardState, AT_RISK_PPM};

/// The aggregate of `state` by a full scan of its snapshot.
fn reference(state: &ShardState) -> ShardAgg {
    let mut a = ShardAgg {
        applied: state.applied,
        rejected: state.rejected,
        rejected_parse: state.rejected_parse,
        rejected_geometry: state.rejected_geometry,
        ..ShardAgg::default()
    };
    for n in state.snapshot(0).nodes {
        a.nodes += 1;
        a.events += n.events;
        a.faulty_pairs += n.health.faulty_pair_count() as u64;
        a.retired_pages += n.health.retired_count() as u64;
        a.active_counter_sum += n.health.active_counter_sum();
        let view = state.node_view(n.node).expect("a snapshotted node");
        a.at_risk_nodes += u64::from(view.risk_ppm >= AT_RISK_PPM);
    }
    a
}

fn apply_all(state: &mut ShardState, events: &[Event]) {
    for ev in events {
        assert!(state.apply_event(ev), "generated events fit the geometry");
    }
}

fn check(shape: &Shape, events: &[Event], every: usize) {
    let seed = shape.seed;
    let mut live = ShardState::new(shape.geom);
    for (i, ev) in events.iter().enumerate() {
        assert!(live.apply_event(ev));
        if i % every == 0 {
            assert_eq!(live.agg(), reference(&live), "seed {seed}: after event {i}");
        }
    }
    let whole = live.agg();
    assert_eq!(whole, reference(&live), "seed {seed}: end of stream");
    assert!(
        whole.at_risk_nodes > 0 && whole.faulty_pairs > 0,
        "seed {seed}: the stream should put nodes at risk: {whole:?}"
    );

    let restored = ShardState::restore(shape.geom, live.snapshot(0).nodes);
    assert_eq!(
        restored.agg(),
        reference(&restored),
        "seed {seed}: restored"
    );
    assert_eq!(restored.agg(), whole, "seed {seed}: restored equals live");

    let half = events.len() / 2;
    let mut first = ShardState::new(shape.geom);
    apply_all(&mut first, &events[..half]);
    let mut resumed = ShardState::restore(shape.geom, first.snapshot(0).nodes);
    for (i, ev) in events[half..].iter().enumerate() {
        assert!(resumed.apply_event(ev));
        if i % every == 0 {
            let got = resumed.agg();
            assert_eq!(got, reference(&resumed), "seed {seed}: resumed, event {i}");
        }
    }
    assert_eq!(resumed.agg(), whole, "seed {seed}: resumed equals live");

    for n in [2u64, 3, 7] {
        let mut shards: Vec<ShardState> = (0..n).map(|_| ShardState::new(shape.geom)).collect();
        for ev in events {
            assert!(shards[(ev.node % n) as usize].apply_event(ev));
        }
        let mut merged = ShardAgg::default();
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.agg(), reference(s), "seed {seed}: shard {i} of {n}");
            merged.merge(&s.agg());
        }
        assert_eq!(merged, whole, "seed {seed}: merged over {n} shards");
    }
}

fn small(threshold: u8) -> Geometry {
    Geometry {
        channels: 2,
        banks: 4,
        threshold,
    }
}

#[test]
fn totals_match_the_scan_under_heavy_ties() {
    for threshold in 1..=5u8 {
        for seed in 0..4 {
            let shape = Shape {
                seed: seed + 10 * u64::from(threshold),
                geom: small(threshold),
                nodes: 40,
                rows: 8,
                max_count: 2,
                events: 3_000,
                fault_every: 97,
            };
            check(&shape, &stream(&shape), 7);
        }
    }
}

#[test]
fn totals_match_the_scan_at_default_geometry() {
    for seed in 100..103 {
        let shape = Shape {
            seed,
            geom: Geometry::default(),
            nodes: 300,
            rows: 16,
            max_count: 4,
            events: 20_000,
            fault_every: 211,
        };
        check(&shape, &stream(&shape), 97);
    }
}

#[test]
fn totals_match_the_scan_when_new_ids_arrive_descending() {
    for seed in 200..203 {
        let shape = Shape {
            seed,
            geom: small(3),
            nodes: 60,
            rows: 8,
            max_count: 3,
            events: 4_000,
            fault_every: 53,
        };
        let mut events = stream(&shape);
        descending_arrivals(&mut events);
        check(&shape, &events, 11);
    }
}

#[test]
fn rejected_and_process_counters_pass_through() {
    let mut s = ShardState::new(Geometry::default());
    s.apply_line(b"{\"kind\":\"event\",\"node\":9,\"channel\":1,\"bank\":2,\"row\":3,\"count\":5}");
    s.apply_line(b"{\"kind\":\"event\",\"node\":9,\"channel\":99,\"bank\":0,\"row\":0}");
    s.apply_line(b"not json");
    let a = s.agg();
    assert_eq!(a, reference(&s));
    assert_eq!(
        (a.nodes, a.events, a.applied, a.rejected),
        (1, 5, 5, 2),
        "{a:?}"
    );
    assert_eq!((a.rejected_parse, a.rejected_geometry), (1, 1));
    assert_eq!(
        ShardState::restore(Geometry::default(), Vec::new()).agg(),
        ShardAgg::default()
    );
}

#[test]
fn restore_counts_a_repeated_node_once_with_its_last_snapshot() {
    let geom = small(3);
    let shape = Shape {
        seed: 7,
        geom,
        nodes: 12,
        rows: 8,
        max_count: 2,
        events: 400,
        fault_every: 31,
    };
    let events = stream(&shape);
    let mut live = ShardState::new(geom);
    apply_all(&mut live, &events);
    let mut stale = ShardState::new(geom);
    apply_all(&mut stale, &events[..40]);
    let early = stale
        .snapshot(0)
        .nodes
        .into_iter()
        .find(|n| n.node == events[0].node);
    // The stale copy comes first, so the node's live snapshot is the last.
    let mut nodes = live.snapshot(0).nodes;
    nodes.insert(0, early.expect("the first event's node"));
    let restored = ShardState::restore(geom, nodes);
    assert_eq!(restored.agg(), reference(&restored));
    assert_eq!(restored.agg(), live.agg());
    assert_eq!(restored.snapshot(0), live.snapshot(0));
}
