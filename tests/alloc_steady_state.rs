//! Allocation accounting for the sweep kernel: in steady state the join
//! loop must not allocate per node-pair expansion.
//!
//! The old kernel built two fresh sorted entry vectors (plus mark vectors
//! under aggressive modes) for *every* expansion — at least two heap
//! allocations per node pair, typically four or more. The `SweepScratch`
//! refactor reuses those buffers across the whole join, so the only
//! remaining allocations are amortized container growth (main queue,
//! results), page-cache recency bookkeeping, sweep-order builds on a
//! tree's first joins, and deliberate `park()` copies. Counting allocations across an entire warm join and
//! dividing by the expansion count separates the two regimes cleanly:
//! the old code cannot go below 2 allocations per expansion, the new one
//! sits well under 1.
//!
//! Allocations are counted per thread: the test harness runs the tests
//! in parallel, and a process-wide counter would charge each test with
//! the other's allocations. Both joins run on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use amdj_core::{am_kdj, b_kdj, AmKdjOptions, JoinConfig};
use amdj_geom::{Point, Rect};
use amdj_rtree::{RTree, RTreeParams};

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates and never re-enters the allocator.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation against the calling thread. A thread being
/// torn down has no counter any more; its allocations go uncounted.
fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates every operation to `System` unchanged; the counter is
// a thread-local cell with no further invariants.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Small pages force deep trees (many node-pair expansions to count);
/// the large buffer keeps every page resident so the measured runs are
/// cache-warm and the page-fault path stays out of the numbers.
fn params() -> RTreeParams {
    RTreeParams {
        page_size: 512,
        buffer_bytes: 8 * 1024 * 1024,
        ..RTreeParams::paper_defaults()
    }
}

fn grid(n: usize, dx: f64, dy: f64) -> Vec<(Rect<2>, u64)> {
    (0..n * n)
        .map(|i| {
            // Irrational-ish jitter keeps distances tie-free.
            let x = (i % n) as f64 + dx + (i as f64 * 0.000137).sin() * 0.01;
            let y = (i / n) as f64 + dy + (i as f64 * 0.000271).cos() * 0.01;
            (Rect::from_point(Point::new([x, y])), i as u64)
        })
        .collect()
}

/// A warm B-KDJ run (page cache populated, no compensation bookkeeping)
/// must average well under one allocation per node-pair expansion.
#[test]
fn warm_bkdj_sweep_is_allocation_free_per_expansion() {
    let a = grid(40, 0.0, 0.0);
    let b = grid(40, 0.27, 0.41);
    let r = RTree::bulk_load(params(), a);
    let s = RTree::bulk_load(params(), b);
    let cfg = JoinConfig::unbounded();
    let k = 600;
    // Warm-up run: faults every needed page into the buffer and sizes the
    // measurement run's expansion count.
    let warm = b_kdj(&r, &s, k, &cfg);
    let expansions = warm.stats.stage1_expansions;
    assert!(
        expansions > 100,
        "workload too small to measure ({expansions} expansions)"
    );

    let before = allocations();
    let out = b_kdj(&r, &s, k, &cfg);
    let delta = allocations() - before;

    assert_eq!(out.results.len(), k);
    assert_eq!(out.stats.stage1_expansions, expansions, "runs must match");
    // Residual allocations: amortized main-queue/result growth (O(log)),
    // page-cache recency updates (one BTreeMap rebalance every few
    // hits), and one-time scratch sizing. The pre-refactor kernel
    // allocated ≥ 2 vectors per expansion and fails this bound by an
    // order of magnitude.
    assert!(
        delta < expansions,
        "{delta} allocations for {expansions} expansions — sweep is allocating per node pair"
    );
}

/// Allocations one `park()` may make: one exact-size copy per parked
/// vector — the two entry lists, the two scan-stop vectors and the
/// rejects. AM-KDJ's stage one cuts real distances at `eDmax` with full
/// marks, so a parked expansion may also hold rejected pairs.
const PARK_ALLOCS: u64 = 5;

/// The aggressive + compensation path allocates when parking a skipped
/// expansion: `park()` copies the scratch's lists and marks into the
/// owned [`CompEntry`] (the one sanctioned allocation site) and leaves
/// the scratch's warmed buffers in place, so the next expansion does not
/// regrow them. Each park is therefore allowed [`PARK_ALLOCS`]
/// allocations; everything else must stay amortized, which the bound
/// below checks.
#[test]
fn warm_amkdj_sweep_allocates_only_for_parked_expansions() {
    let a = grid(35, 0.0, 0.0);
    let b = grid(35, 0.31, 0.17);
    let r = RTree::bulk_load(params(), a);
    let s = RTree::bulk_load(params(), b);
    let cfg = JoinConfig::unbounded();
    let opts = AmKdjOptions::default();
    let k = 500;
    let warm = am_kdj(&r, &s, k, &cfg, &opts);
    let expansions = warm.stats.stage1_expansions + warm.stats.stage2_expansions;
    let parks = warm.stats.compq_insertions;
    assert!(
        expansions > 100,
        "workload too small to measure ({expansions} expansions)"
    );

    let before = allocations();
    let out = am_kdj(&r, &s, k, &cfg, &opts);
    let delta = allocations() - before;

    assert_eq!(out.results.len(), k);
    // Parks cost at most PARK_ALLOCS each and nothing afterwards;
    // non-parking expansions must stay allocation-free. The earlier
    // `park` moved the scratch's buffers out instead, so the next
    // expansion regrew its entry lists and, push by push, its stop
    // vectors. This workload now makes 3,254 allocations against a bound
    // of 3,792: all 632 expansions park, and stage two replays each of
    // them. The pre-refactor kernel allocated ≥ 2 vectors on *every*
    // expansion and busts this bound even with zero parks.
    assert!(
        delta < expansions + PARK_ALLOCS * parks,
        "{delta} allocations for {expansions} expansions ({parks} parks) — \
         aggressive sweep is allocating beyond its parks"
    );
}
