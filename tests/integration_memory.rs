//! Memory-budget behaviour: results must be identical under any queue
//! memory budget and any R-tree buffer size; only the I/O work may differ
//! (§4.4, §5.5).

use amdj_core::{am_kdj, b_kdj, bruteforce, par_am_kdj, AmKdjOptions, JoinConfig, Pair};
use amdj_datagen::tiger::{self, Geography};
use amdj_rtree::{RTree, RTreeParams};
use amdj_storage::{CostModel, SpillQueue};
use amdj_tests::assert_same_distances;

fn trees_with_buffer(
    a: &amdj_datagen::Dataset,
    b: &amdj_datagen::Dataset,
    buffer: usize,
) -> (RTree<2>, RTree<2>) {
    let params = RTreeParams {
        buffer_bytes: buffer,
        ..RTreeParams::for_tests()
    };
    (
        RTree::bulk_load(params.clone(), a.clone()),
        RTree::bulk_load(params, b.clone()),
    )
}

fn tight_cfg(mem: usize) -> JoinConfig {
    JoinConfig {
        queue_mem_bytes: mem,
        queue_cost: CostModel {
            page_size: 1024,
            ..CostModel::paper_1999_disk()
        },
        ..JoinConfig::default()
    }
}

#[test]
fn results_invariant_under_queue_memory() {
    let geo = Geography::arizona_like(33);
    let a = geo.streets(1500);
    let b = geo.hydro(600);
    let k = 500;
    let want = bruteforce::k_closest_pairs(&a, &b, k);
    for mem in [2 * 1024, 16 * 1024, 1 << 22] {
        let (r, s) = trees_with_buffer(&a, &b, 64 * 1024);
        let out = b_kdj(&r, &s, k, &tight_cfg(mem));
        assert_same_distances(&out.results, &want, &format!("B-KDJ mem={mem}"));
        let out = am_kdj(&r, &s, k, &tight_cfg(mem), &AmKdjOptions::default());
        assert_same_distances(&out.results, &want, &format!("AM-KDJ mem={mem}"));
    }
}

#[test]
fn tight_queue_memory_causes_spill_io() {
    let geo = Geography::arizona_like(35);
    let a = geo.streets(2000);
    let b = geo.hydro(800);
    let k = 600;
    let (r, s) = trees_with_buffer(&a, &b, 64 * 1024);
    let tight = b_kdj(&r, &s, k, &tight_cfg(2 * 1024));
    r.clear_buffer();
    s.clear_buffer();
    let roomy = b_kdj(&r, &s, k, &tight_cfg(1 << 24));
    assert!(
        tight.stats.queue_page_writes > 0,
        "a 2 KB queue must spill (insertions: {})",
        tight.stats.mainq_insertions
    );
    assert_eq!(
        roomy.stats.queue_page_writes, 0,
        "a 16 MB queue must not spill"
    );
    assert!(tight.stats.io_seconds > roomy.stats.io_seconds);
}

/// Main-queue splits stay amortised on the paper's TIGER-like Arizona
/// data, where overlapping MBRs put thousands of result pairs at distance
/// 0: every split keeps at most half the heap resident, so a queue splits
/// at most `2·(inserts + reinserts)/capacity + swap-ins + 1` times. (The
/// old rule spilled only the max-key entries of a heap tied at its
/// minimum; here it split 99 times sequentially and thousands of times
/// across the two parallel workers.)
#[test]
fn arizona_queue_splits_stay_amortised() {
    let (a, b) = tiger::arizona_workload(0.19, 1);
    let r = RTree::bulk_load(RTreeParams::paper_defaults(), a);
    let s = RTree::bulk_load(RTreeParams::paper_defaults(), b);
    let cfg = JoinConfig::default();
    let capacity =
        (cfg.queue_mem_bytes / SpillQueue::<Pair<2>>::per_item_cost(Pair::<2>::ENCODED_LEN)) as u64;
    let k = 10_000;
    let opts = AmKdjOptions::default();

    // One queue; its only re-insertion is the head parked when stage one
    // ends.
    let seq = am_kdj(&r, &s, k, &cfg, &opts);
    let st = &seq.stats;
    let bound = 2 * (st.mainq_insertions + 1) / capacity + st.queue_swap_ins + 1;
    assert!(
        st.queue_splits <= bound,
        "am_kdj: {} splits exceed the amortised bound {bound}",
        st.queue_splits
    );

    // Two workers own at most four queues (one per stage each), and their
    // re-insertions are at most twice the insertions: a stage-two seed
    // re-enters a pair some stage-one queue counted, and each parked head
    // ends a claim round that pushed at least one counted seed.
    let par = par_am_kdj(&r, &s, k, &cfg, &opts, 2);
    let st = &par.stats;
    let bound = 2 * (3 * st.mainq_insertions) / capacity + st.queue_swap_ins + 4;
    assert!(
        st.queue_splits <= bound,
        "par_am_kdj: {} splits exceed the amortised bound {bound}",
        st.queue_splits
    );
    assert_same_distances(&par.results, &seq.results, "par_am_kdj vs am_kdj");
}

/// Every Arizona answer up to k = 10K lies at distance 0. The main queue
/// pops equal distances deepest pair first, so the zero-distance result
/// pairs surface after a few hundred expansions instead of after all
/// 6,377 overlapping node pairs; and AM-KDJ's stage one, cutting real
/// distances at `eDmax`, queues no more pairs than B-KDJ.
#[test]
fn arizona_distance_ties_pop_depth_first() {
    let (a, b) = tiger::arizona_workload(0.19, 1);
    let r = RTree::bulk_load(RTreeParams::paper_defaults(), a);
    let s = RTree::bulk_load(RTreeParams::paper_defaults(), b);
    let cfg = JoinConfig::default();
    for k in [1_000, 10_000] {
        let bk = b_kdj(&r, &s, k, &cfg);
        let am = am_kdj(&r, &s, k, &cfg, &AmKdjOptions::default());
        assert_same_distances(&am.results, &bk.results, "am_kdj vs b_kdj");
        if k == 1_000 {
            for (name, out) in [("am_kdj", &am), ("b_kdj", &bk)] {
                assert!(
                    out.stats.stage1_expansions < 1_000,
                    "{name}: {} expansions at k = {k}",
                    out.stats.stage1_expansions
                );
            }
        }
        assert!(
            am.stats.mainq_insertions <= bk.stats.mainq_insertions,
            "k = {k}: AM {} vs B {} main-queue insertions",
            am.stats.mainq_insertions,
            bk.stats.mainq_insertions
        );
    }
}

#[test]
fn smaller_tree_buffer_more_disk_reads() {
    let geo = Geography::arizona_like(37);
    let a = geo.streets(2500);
    let b = geo.hydro(900);
    let k = 400;
    let (r_small, s_small) = trees_with_buffer(&a, &b, 2 * 256);
    let (r_big, s_big) = trees_with_buffer(&a, &b, 1 << 20);
    let small = b_kdj(&r_small, &s_small, k, &JoinConfig::unbounded());
    let big = b_kdj(&r_big, &s_big, k, &JoinConfig::unbounded());
    assert_eq!(
        small.stats.node_requests, big.stats.node_requests,
        "same traversal"
    );
    assert!(
        small.stats.node_disk_reads > big.stats.node_disk_reads,
        "small buffer {} vs big buffer {}",
        small.stats.node_disk_reads,
        big.stats.node_disk_reads
    );
    assert_same_distances(
        &small.results,
        &big.results,
        "buffer size changes no answer",
    );
}

#[test]
fn zero_buffer_reads_equal_requests() {
    let geo = Geography::arizona_like(39);
    let a = geo.streets(800);
    let b = geo.hydro(300);
    let (r, s) = trees_with_buffer(&a, &b, 0);
    let out = b_kdj(&r, &s, 100, &JoinConfig::unbounded());
    assert_eq!(
        out.stats.node_requests, out.stats.node_disk_reads,
        "without a buffer every request hits disk (Table 2's parenthesized column)"
    );
}
