//! Cached sweep orders: every order a tree hands out must equal a fresh
//! `(key, child)` sort of the node's entries — ties included — and must
//! be built once, reused, and rebuilt only after the page changes.

use amdj_geom::{sweep_key, Point, Rect, SweepDirection};
use amdj_rtree::{thread_sweep_order_stats, Entry, Node, RTree, RTreeParams};
use amdj_storage::PageId;
use proptest::prelude::*;

const DIRS: [SweepDirection; 2] = [SweepDirection::Forward, SweepDirection::Backward];

/// The reference: whole entries keyed and sorted in place, as a sweep
/// that sorts its node on every expansion would.
fn fresh_sort<const D: usize>(node: &Node<D>, axis: usize, dir: SweepDirection) -> Vec<Entry<D>> {
    #[derive(Clone, Copy)]
    struct Keyed<const D: usize> {
        mbr: Rect<D>,
        child: u64,
        key: f64,
    }
    let mut keyed: Vec<Keyed<D>> = node
        .entries
        .iter()
        .map(|e| Keyed {
            mbr: e.mbr,
            child: e.child,
            key: sweep_key(&e.mbr, axis, dir),
        })
        .collect();
    keyed.sort_unstable_by(|a, b| a.key.total_cmp(&b.key).then_with(|| a.child.cmp(&b.child)));
    keyed
        .iter()
        .map(|k| Entry {
            mbr: k.mbr,
            child: k.child,
        })
        .collect()
}

fn gather<const D: usize>(node: &Node<D>, order: &[u16]) -> Vec<Entry<D>> {
    order
        .iter()
        .map(|&i| node.entries[usize::from(i)])
        .collect()
}

/// Every page id reachable from the root.
fn pages<const D: usize>(tree: &RTree<D>) -> Vec<PageId> {
    let mut out = Vec::new();
    let mut stack: Vec<PageId> = tree.root_page().into_iter().collect();
    while let Some(pid) = stack.pop() {
        let node = tree.fetch(pid);
        if !node.is_leaf() {
            stack.extend(node.entries.iter().map(|e| PageId(e.child)));
        }
        out.push(pid);
    }
    out
}

/// Checks all 2·D cached orders of every page against the fresh sort,
/// twice (the second read is served from the table).
fn assert_orders_match<const D: usize>(tree: &RTree<D>) -> Result<(), TestCaseError> {
    for pass in 0..2 {
        for pid in pages(tree) {
            let node = tree.fetch(pid);
            for axis in 0..D {
                for dir in DIRS {
                    let cached = tree.sweep_order(pid, &node, axis, dir);
                    prop_assert_eq!(
                        gather(&node, cached),
                        fresh_sort(&node, axis, dir),
                        "pass {pass}, page {pid:?}, axis {axis}, {dir:?}"
                    );
                }
            }
        }
    }
    Ok(())
}

/// Coordinates on a coarse grid (ties on every key), half the objects
/// zero-extent points, ids from a small range (duplicates).
fn arb_items<const D: usize>(max: usize) -> impl Strategy<Value = Vec<(Rect<D>, u64)>> {
    prop::collection::vec(
        (
            prop::collection::vec(0u8..6, D..D + 1),
            prop::collection::vec(0u8..3, D..D + 1),
            any::<bool>(),
            0u64..12,
        ),
        1..max,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(lo, ext, point, id)| {
                let lo: [f64; D] = std::array::from_fn(|d| f64::from(lo[d]) * 0.5);
                let hi: [f64; D] = if point {
                    lo
                } else {
                    std::array::from_fn(|d| lo[d] + f64::from(ext[d]))
                };
                (Rect::new(lo, hi), id)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Paper-default pages hold about a hundred entries, so leaves take
    /// the large-input path of the unstable sort, not just its small-sort.
    #[test]
    fn cached_orders_equal_a_fresh_sort_2d(items in arb_items::<2>(400)) {
        let tree = RTree::bulk_load(RTreeParams::paper_defaults(), items);
        assert_orders_match(&tree)?;
    }

    #[test]
    fn cached_orders_equal_a_fresh_sort_3d(items in arb_items::<3>(200)) {
        let tree = RTree::bulk_load(RTreeParams::for_tests(), items);
        assert_orders_match(&tree)?;
    }

    /// Inserts and deletes rewrite pages; every order read afterwards
    /// must describe the page's new content.
    #[test]
    fn orders_stay_fresh_under_updates(
        items in arb_items::<2>(150),
        extra in arb_items::<2>(60),
    ) {
        let mut tree = RTree::bulk_load(RTreeParams::for_tests(), items.clone());
        assert_orders_match(&tree)?;
        for &(mbr, id) in &extra {
            tree.insert(mbr, id);
        }
        assert_orders_match(&tree)?;
        for &(mbr, id) in items.iter().step_by(2) {
            prop_assert!(tree.delete(&mbr, id));
        }
        assert_orders_match(&tree)?;
    }
}

fn point_items(n: u64) -> Vec<(Rect<2>, u64)> {
    (0..n)
        .map(|i| {
            let x = ((i * 7) % n) as f64;
            (Rect::from_point(Point::new([x, (i % 3) as f64])), i)
        })
        .collect()
}

/// Lookups and builds on this thread while `f` runs.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let (l0, b0) = thread_sweep_order_stats();
    f();
    let (l1, b1) = thread_sweep_order_stats();
    (l1 - l0, b1 - b0)
}

#[test]
fn an_order_is_built_once_and_reused() {
    let tree = RTree::bulk_load(RTreeParams::paper_defaults(), point_items(50));
    assert_eq!(tree.height(), 1, "one leaf");
    assert_eq!(tree.sweep_order_bytes(), 0, "nothing is built at load");
    let root = tree.root_page().unwrap();
    let node = tree.fetch(root);
    let requests = tree.access_stats().requests;
    let first = tree
        .sweep_order(root, &node, 0, SweepDirection::Forward)
        .to_vec();
    let counts = counted(|| {
        for _ in 0..5 {
            let again = tree.sweep_order(root, &node, 0, SweepDirection::Forward);
            assert_eq!(again, &first[..]);
        }
    });
    assert_eq!(counts, (5, 0), "five reads, no rebuild");
    // Each (axis, direction) is its own order, built on its own first use.
    let counts = counted(|| {
        for axis in 0..2 {
            for dir in DIRS {
                let _ = tree.sweep_order(root, &node, axis, dir);
            }
        }
    });
    assert_eq!(counts, (4, 3));
    assert_eq!(tree.sweep_order_bytes(), 4 * 50 * 2);
    assert_eq!(
        tree.access_stats().requests,
        requests,
        "orders count no node access"
    );
}

#[test]
fn orders_are_rebuilt_after_insert_delete_and_reload() {
    let fwd = SweepDirection::Forward;
    let mut tree = RTree::bulk_load(RTreeParams::paper_defaults(), point_items(50));
    let root = tree.root_page().unwrap();
    let build = |tree: &RTree<2>| {
        let node = tree.fetch(root);
        let mut out = Vec::new();
        let counts = counted(|| out = gather(&node, tree.sweep_order(root, &node, 0, fwd)));
        assert_eq!(out, fresh_sort(&node, 0, fwd));
        (counts, out.len())
    };
    assert_eq!(build(&tree), ((1, 1), 50));
    assert_eq!(build(&tree), ((1, 0), 50), "cached");

    // The new point sorts first: a stale order would miss it.
    tree.insert(Rect::from_point(Point::new([-1.0, 0.0])), 999);
    assert_eq!(tree.root_page(), Some(root), "still one leaf");
    assert_eq!(build(&tree), ((1, 1), 51), "rebuilt after insert");
    assert_eq!(build(&tree), ((1, 0), 51));

    assert!(tree.delete(&Rect::from_point(Point::new([0.0, 0.0])), 0));
    assert_eq!(build(&tree), ((1, 1), 50), "rebuilt after delete");

    let mut bytes = Vec::new();
    tree.save(&mut bytes).unwrap();
    let tree = RTree::<2>::load(&mut bytes.as_slice(), RTreeParams::paper_defaults()).unwrap();
    assert_eq!(
        tree.sweep_order_bytes(),
        0,
        "a reload starts with no orders"
    );
    assert_eq!(build(&tree), ((1, 1), 50), "rebuilt after reload");
    assert_eq!(build(&tree), ((1, 0), 50));
}
