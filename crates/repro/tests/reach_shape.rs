//! The spam-reach row of EXPERIMENTS.md as a shape gate at `tiny`, and the
//! ground-truth sample memo behind the other rows as an invisible one.
//!
//! As in `ablations.rs`: a number that moves is a doc correction, a shape
//! that flips is a regression.

use sybil_repro::fig1::ground_truth_sample;
use sybil_repro::{reach, table2, Ctx, Scale};

/// A campaign reaches past its one-hop audience, further the more readily
/// readers forward, and the giant component's covers more of the normal
/// population than the Table 2 audience column credits it with.
#[test]
fn reach_exceeds_table2_audience_and_grows_with_forwarding() {
    for seed in [3, 11, 42] {
        let ctx = Ctx::build(Scale::Tiny, seed);
        let r = reach::run(&ctx, 50);
        let t2 = table2::run(&ctx);
        assert!(!r.rows.is_empty(), "seed {seed}: no Sybil component");
        for (row, t2_row) in r.rows.iter().zip(&t2.rows) {
            assert_eq!((row.sybils, row.audience), (t2_row.sybils, t2_row.audience));
            let means: Vec<f64> = row.reach.iter().map(|&(_, mean)| mean).collect();
            assert!(means[0] >= row.audience as f64, "seed {seed}: {row:?}");
            assert!(means.windows(2).all(|w| w[0] < w[1]), "seed {seed}: {row:?}");
        }
        let one_hop = r.rows[0].audience as f64 / ctx.normals.len() as f64;
        assert!(
            r.giant_max_coverage > one_hop,
            "seed {seed}: coverage {} vs one-hop {one_hop}",
            r.giant_max_coverage
        );
    }
}

/// A context that has handed out a sample before answers exactly as one
/// that has not, whichever size was asked for first.
#[test]
fn ground_truth_sample_memo_is_invisible() {
    let fresh = |k| ground_truth_sample(&Ctx::build(Scale::Tiny, 42), k);
    let (small, large) = (fresh(20), fresh(60));
    assert_eq!((small.len(), large.len()), (40, 120));
    let ctx = Ctx::build(Scale::Tiny, 42);
    for k in [60, 60, 20, 60, 20] {
        let expected = if k == 60 { &large } else { &small };
        assert_eq!(&ground_truth_sample(&ctx, k), expected);
    }
    // A caller that reorders its copy (Table 1, the zoo) leaves the next
    // caller's untouched.
    let mut mine = ground_truth_sample(&ctx, 60);
    mine.nodes.reverse();
    assert_eq!(ground_truth_sample(&ctx, 60), large);
}
