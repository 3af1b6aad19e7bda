//! Property tests for the local shortest-path substrate on arbitrary
//! graphs: Dijkstra's settle order and the landmark lower bounds.

use fedroad_graph::algo::{spsp, sssp};
use fedroad_graph::landmarks::{select_landmarks, LandmarkTable};
use fedroad_graph::{Coord, Graph, GraphBuilder, VertexId};
use proptest::prelude::*;

/// Random strongly connected directed graph: ring backbone + chords.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        5usize..35,
        proptest::collection::vec((0u32..35, 0u32..35, 1u64..1_000), 0..80),
    )
        .prop_map(|(n, chords)| {
            let mut b = GraphBuilder::new();
            for i in 0..n {
                b.add_vertex(Coord {
                    x: (i % 6) as f64 * 100.0,
                    y: (i / 6) as f64 * 100.0,
                });
            }
            let mut seen = std::collections::HashSet::new();
            for i in 0..n as u32 {
                let j = (i + 1) % n as u32;
                b.add_arc(VertexId(i), VertexId(j), 50 + (i as u64 * 17 % 90));
                seen.insert((i, j));
            }
            for (u, v, w) in chords {
                let (u, v) = (u % n as u32, v % n as u32);
                if u != v && seen.insert((u, v)) {
                    b.add_arc(VertexId(u), VertexId(v), w);
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn landmark_bounds_never_exceed_true_distances(
        g in arb_graph(),
        count in 1usize..5,
        s in 0u32..35,
        t in 0u32..35,
    ) {
        let n = g.num_vertices() as u32;
        let (s, t) = (VertexId(s % n), VertexId(t % n));
        let count = count.min(g.num_vertices());
        let w = g.static_weights();
        let table = LandmarkTable::compute(&g, w, &select_landmarks(&g, count));
        if let Some((d, _)) = spsp(&g, w, s, t) {
            prop_assert!(table.best_bound(s, t) <= d);
        }
    }

    #[test]
    fn sssp_settle_order_is_nondecreasing(g in arb_graph(), s in 0u32..35) {
        let n = g.num_vertices() as u32;
        let s = VertexId(s % n);
        let run = sssp(&g, g.static_weights(), s);
        let dists: Vec<u64> = run.settled.iter().map(|v| run.dist[v.index()]).collect();
        prop_assert!(dists.windows(2).all(|w| w[0] <= w[1]));
    }
}
