//! Determinism self-check: for a fixed seed the benchmark's counts repeat
//! exactly, and a different seed draws a different OD set. Runs are
//! shortened (few OD pairs, few update ticks, no timed window) but take
//! the same code paths as a benchmark run.

use fedroad_perfbench::workload::{od_pairs, run, Plan, Report, Workload};

/// Counts of an end-to-end run that are a function of the seed. On the
/// executors rounds and bytes depend on how queries coalesce, and on
/// `live-update` Fed-SACs per query depend on the epoch that answered.
fn e2e_counts(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::RouteLong => &[
            "sacs_per_query",
            "rounds_per_query",
            "bytes_per_query",
            "sacs_per_update",
        ],
        Workload::RouteShortBatch => &["sacs_per_query", "sacs_per_update"],
        Workload::LiveUpdate => &["sacs_per_update"],
    }
}

/// Per-layer counts of a traced run.
const LAYER_COUNTS: [&str; 9] = [
    "fedch.customize_fresh_sacs",
    "fedch.touched_per_epoch",
    "fedch.changed_per_epoch",
    "fedch.cone_depth",
    "spsp.settled_per_query",
    "queue.cmp_build_per_query",
    "queue.cmp_merge_per_query",
    "queue.cmp_pop_per_query",
    "queue.pushes_per_query",
];

fn short(workload: Workload, seed: u64, trace: bool) -> Report {
    let report = run(&Plan {
        od_len: 6,
        ticks: 12,
        setup_reps: 1,
        ..Plan::new(workload, seed, 0.0, trace)
    });
    assert!(report.correct(), "{workload:?}: {:?}", report.problems);
    assert_eq!(report.failed, 0);
    report
}

fn assert_same(a: &Report, b: &Report, names: &[&str], what: &str) {
    for name in names {
        let (x, y) = (a.metric(name), b.metric(name));
        assert!(x.is_some(), "{what}: {name} missing");
        assert_eq!(x, y, "{what}: {name} differs between two runs of one seed");
    }
}

#[test]
fn end_to_end_counts_repeat_for_a_fixed_seed() {
    for w in Workload::ALL {
        let (a, b) = (short(w, 7, false), short(w, 7, false));
        assert_same(&a, &b, e2e_counts(w), w.name());
    }
}

#[test]
fn layer_counts_repeat_for_a_fixed_seed() {
    for w in Workload::ALL {
        let (a, b) = (short(w, 7, true), short(w, 7, true));
        assert_same(&a, &b, &LAYER_COUNTS, w.name());
    }
}

#[test]
fn seeds_draw_different_od_sets() {
    for w in Workload::ALL {
        let a = od_pairs(w, 32, 7);
        assert_eq!(a, od_pairs(w, 32, 7), "{}: one seed, two OD sets", w.name());
        assert_ne!(a, od_pairs(w, 32, 8), "{}: two seeds, one OD set", w.name());
    }
}
