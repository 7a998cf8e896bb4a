//! Differential oracle for `ShardState::top_pages`.
//!
//! `top_pages` answers with a bounded, max-CE-pruned selection instead of
//! sorting every page. This test holds it to the plain definition: flatten
//! every page of a snapshot, take `retired` from the snapshot's health
//! table, sort by (most errors first, then lowest node, channel, bank,
//! row) and truncate. The seeded event streams are built for ties — few
//! distinct counts, rows reused across nodes and within a node — and mix
//! in bank faults and retired pages. Each stream is checked live, after a
//! snapshot/restore round trip (in id order and shuffled), and as a merge
//! of `node % n` partitions.

mod common;

use common::{descending_arrivals, stream, Mix, Shape};
use eccparity_service::rpc::{Event, MAX_TOP_K};
use eccparity_service::state::{merge_top_pages, Geometry, PageRisk, ShardState};

/// The documented order, written out independently of the crate's.
fn reference_order(a: &PageRisk, b: &PageRisk) -> std::cmp::Ordering {
    (b.ce, a.node, a.channel, a.bank, a.row).cmp(&(a.ce, b.node, b.channel, b.bank, b.row))
}

/// Every page of the state, sorted by the documented order.
fn reference_all(state: &ShardState) -> Vec<PageRisk> {
    let mut all: Vec<PageRisk> = state
        .snapshot(0)
        .nodes
        .iter()
        .flat_map(|n| {
            n.pages.iter().map(|p| PageRisk {
                node: n.node,
                channel: p.channel,
                bank: p.bank,
                row: p.row,
                ce: p.count,
                retired: n
                    .health
                    .is_retired(p.channel as usize, p.bank as usize, p.row),
            })
        })
        .collect();
    all.sort_by(reference_order);
    all
}

fn ks(pages: usize) -> Vec<usize> {
    let mut ks = vec![1, 2, 50, pages + 5, MAX_TOP_K as usize];
    ks.extend(
        [pages.saturating_sub(1), pages]
            .into_iter()
            .filter(|&k| k > 0),
    );
    ks
}

fn check(shape: &Shape) {
    check_events(shape, &stream(shape));
}

fn check_events(shape: &Shape, events: &[Event]) {
    let mut live = ShardState::new(shape.geom);
    for ev in events {
        assert!(live.apply_event(ev), "generated events fit the geometry");
    }
    let reference = reference_all(&live);
    let pages = reference.len();
    assert!(
        reference.iter().any(|p| p.retired) && reference.iter().any(|p| !p.retired),
        "seed {}: the stream should mix retired and live pages",
        shape.seed
    );
    let restored = ShardState::restore(shape.geom, live.snapshot(0).nodes);
    let mut shuffled_nodes = live.snapshot(0).nodes;
    let mut rng = Mix(shape.seed ^ 0x5eed);
    for i in (1..shuffled_nodes.len()).rev() {
        shuffled_nodes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let shuffled = ShardState::restore(shape.geom, shuffled_nodes);
    assert_eq!(
        shuffled.snapshot(0),
        live.snapshot(0),
        "seed {}",
        shape.seed
    );
    let partitions: Vec<(usize, Vec<ShardState>)> = [1usize, 3, 7]
        .into_iter()
        .map(|n| {
            let mut shards: Vec<ShardState> = (0..n).map(|_| ShardState::new(shape.geom)).collect();
            for ev in events {
                assert!(shards[(ev.node % n as u64) as usize].apply_event(ev));
            }
            (n, shards)
        })
        .collect();

    for k in ks(pages) {
        let want = &reference[..k.min(pages)];
        let seed = shape.seed;
        assert_eq!(live.top_pages(k), want, "seed {seed} k {k}: live");
        assert_eq!(restored.top_pages(k), want, "seed {seed} k {k}: restored");
        assert_eq!(shuffled.top_pages(k), want, "seed {seed} k {k}: shuffled");
        for (n, shards) in &partitions {
            let merged = merge_top_pages(shards.iter().map(|s| s.top_pages(k)).collect(), k);
            assert_eq!(merged, want, "seed {seed} k {k}: merged over {n} shards");
        }
    }
}

#[test]
fn top_pages_matches_full_sort_under_heavy_ties() {
    let small = Geometry {
        channels: 2,
        banks: 4,
        threshold: 3,
    };
    for seed in 0..8 {
        // Counts of 1 and 2 only, eight rows per bank: almost every page
        // ties with many others, within a node and across nodes.
        check(&Shape {
            seed,
            geom: small,
            nodes: 40,
            rows: 8,
            max_count: 2,
            events: 3_000,
            fault_every: 97,
        });
    }
}

#[test]
fn top_pages_matches_full_sort_at_default_geometry() {
    for seed in 100..104 {
        check(&Shape {
            seed,
            geom: Geometry::default(),
            nodes: 300,
            rows: 16,
            max_count: 4,
            events: 20_000,
            fault_every: 211,
        });
    }
}

#[test]
fn top_pages_matches_full_sort_when_new_ids_arrive_descending() {
    // Every new node enters the id order at its front, the opposite of
    // the arrival order, so the kept order is built by insertion alone.
    for seed in 200..204 {
        let shape = Shape {
            seed,
            geom: Geometry::default(),
            nodes: 300,
            rows: 16,
            max_count: 4,
            events: 20_000,
            fault_every: 211,
        };
        let mut events = stream(&shape);
        descending_arrivals(&mut events);
        let mut seen = std::collections::HashSet::new();
        let mut lowest = u64::MAX;
        for ev in &events {
            if seen.insert(ev.node) {
                assert!(ev.node < lowest, "seed {seed}: {} after {lowest}", ev.node);
                lowest = ev.node;
            }
        }
        assert!(seen.len() > 250, "seed {seed}: {} nodes", seen.len());
        check_events(&shape, &events);
    }
}

#[test]
fn top_pages_of_an_empty_state_is_empty() {
    let s = ShardState::new(Geometry::default());
    assert!(s.top_pages(50).is_empty());
    assert!(ShardState::restore(Geometry::default(), Vec::new())
        .top_pages(MAX_TOP_K as usize)
        .is_empty());
}
