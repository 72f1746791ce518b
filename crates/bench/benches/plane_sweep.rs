//! Ablation bench for §3's optimizations: B-KDJ with sweeping-axis and
//! direction selection on vs off (the timing view of Figure 11), plus the
//! leaf-kernel ladder — per-pair scalar sweep, explicit lane kernel, lane
//! kernel with the quantized integer prefilter — on leaf-heavy workloads,
//! with the prefilter's measured rejection rate printed alongside; and
//! the step before every sweep, preparing a leaf pair's entry lists.

use amdj_bench::{build_trees, Workload};
use amdj_core::{am_kdj, b_kdj, within_join, AmKdjOptions, JoinConfig};
use amdj_datagen::tiger;
use amdj_geom::{sweep_key, Rect, SweepDirection};
use amdj_rtree::{Node, RTree};
use amdj_storage::PageId;
use criterion::{criterion_group, criterion_main, Criterion};

fn workload() -> Workload {
    let (streets, hydro) = tiger::arizona_workload(0.01, 2000);
    Workload { streets, hydro }
}

fn bench_sweep_optimizations(c: &mut Criterion) {
    let w = workload();
    let (r, s) = build_trees(&w, 512 * 1024);
    let mut g = c.benchmark_group("plane_sweep/bkdj_k1000");
    g.sample_size(10);
    let variants = [
        ("optimized", true, true),
        ("axis_only", true, false),
        ("direction_only", false, true),
        ("fixed", false, false),
    ];
    for (name, axis, dir) in variants {
        let cfg = JoinConfig {
            optimize_axis: axis,
            optimize_direction: dir,
            ..JoinConfig::unbounded()
        };
        g.bench_function(name, |b| {
            b.iter(|| {
                amdj_bench::reset(&r, &s);
                b_kdj(&r, &s, 1_000, &cfg).results.len()
            });
        });
    }
    g.finish();
}

/// The kernel ladder — scalar per-pair `min_dist` calls, the explicit
/// unroll-by-8 lane kernel, and the lane kernel behind the quantized
/// integer prefilter — on the two leaf-heaviest shapes we have: a
/// `within` join at the k-th oracle distance (every qualifying leaf pair
/// is swept with a frozen cutoff) and AM-KDJ stage one under a
/// deliberate under-estimate (frozen `eDmax` axis cutoff plus a
/// compensation stage). All rungs are bit-identical — the
/// `engine_matrix` suite pins that — so this group measures pure kernel
/// throughput; the prefilter's rejection rate per shape is printed so
/// the win is attributable, not assumed.
fn bench_leaf_kernel(c: &mut Criterion) {
    let w = workload();
    let (r, s) = build_trees(&w, 512 * 1024);
    amdj_bench::reset(&r, &s);
    let oracle = b_kdj(&r, &s, 1_000, &JoinConfig::unbounded());
    let dmax = oracle.results.last().map_or(0.01, |p| p.dist);
    let opts = AmKdjOptions {
        edmax_override: Some(dmax * 0.5),
    };
    let mut g = c.benchmark_group("plane_sweep/leaf_kernel");
    g.sample_size(10);
    let rungs = [
        ("scalar", false, false),
        ("lanes", true, false),
        ("lanes+quantized", true, true),
    ];
    for (name, batched, prefilter) in rungs {
        let cfg = JoinConfig {
            batched_leaf_sweep: batched,
            quantized_prefilter: prefilter,
            ..JoinConfig::unbounded()
        };
        g.bench_function(format!("within/{name}"), |b| {
            b.iter(|| {
                amdj_bench::reset(&r, &s);
                within_join(&r, &s, dmax, &cfg).results.len()
            });
        });
        g.bench_function(format!("amkdj_underest/{name}"), |b| {
            b.iter(|| {
                amdj_bench::reset(&r, &s);
                am_kdj(&r, &s, 1_000, &cfg, &opts).results.len()
            });
        });
    }
    g.finish();
    // Rejection rates under the full kernel, per shape: skipped exact
    // distances over the scalar path's distance count.
    let cfg = JoinConfig::unbounded();
    amdj_bench::reset(&r, &s);
    let w_stats = within_join(&r, &s, dmax, &cfg).stats;
    amdj_bench::reset(&r, &s);
    let am_stats = am_kdj(&r, &s, 1_000, &cfg, &opts).stats;
    for (shape, st) in [("within", w_stats), ("amkdj_underest", am_stats)] {
        let total = st.real_dist + st.exact_dist_skipped;
        eprintln!(
            "leaf_kernel/{shape}: prefilter rejected {} of {} candidates ({:.1}%)",
            st.quantized_rejects,
            total,
            100.0 * st.quantized_rejects as f64 / total.max(1) as f64,
        );
    }
}

/// Every leaf page of `tree`.
fn leaf_pages(tree: &RTree<2>) -> Vec<PageId> {
    let mut leaves = Vec::new();
    let mut stack: Vec<PageId> = tree.root_page().into_iter().collect();
    while let Some(pid) = stack.pop() {
        let node = tree.fetch(pid);
        if node.is_leaf() {
            leaves.push(pid);
        } else {
            stack.extend(node.entries.iter().map(|e| PageId(e.child)));
        }
    }
    leaves
}

/// Gathers `node`'s entries in `order`, keyed for the sweep — what the
/// engine's expansion does with each side before sweeping.
fn gather(buf: &mut Vec<(Rect<2>, u64, f64)>, node: &Node<2>, order: &[u16], dir: SweepDirection) {
    buf.clear();
    buf.extend(order.iter().map(|&i| {
        let e = &node.entries[usize::from(i)];
        (e.mbr, e.child, sweep_key(&e.mbr, 0, dir))
    }));
}

/// Preparing leaf pairs for sweeping: fetch both leaves through the
/// warm buffer, look up their sweep orders, gather the entries. `cached`
/// is the engine's path (each page's order sorted once per tree);
/// `sorted` sorts every node on every fill, the cost the order table
/// removes.
fn bench_leaf_prepare(c: &mut Criterion) {
    let w = workload();
    let (r, s) = build_trees(&w, 64 * 1024 * 1024);
    let pairs: Vec<(PageId, PageId)> = leaf_pages(&r)
        .into_iter()
        .zip(leaf_pages(&s).into_iter().cycle())
        .collect();
    let dirs = [SweepDirection::Forward, SweepDirection::Backward];
    let mut left = Vec::new();
    let mut right = Vec::new();
    let mut g = c.benchmark_group("plane_sweep/prepare_leaf_pair");
    g.sample_size(20);
    g.bench_function("cached", |b| {
        b.iter(|| {
            for (i, &(pr, ps)) in pairs.iter().enumerate() {
                let dir = dirs[i % 2];
                let (nr, ns) = (r.fetch(pr), s.fetch(ps));
                gather(&mut left, &nr, r.sweep_order(pr, &nr, 0, dir), dir);
                gather(&mut right, &ns, s.sweep_order(ps, &ns, 0, dir), dir);
            }
            left.len() + right.len()
        });
    });
    g.bench_function("sorted", |b| {
        b.iter(|| {
            for (i, &(pr, ps)) in pairs.iter().enumerate() {
                let dir = dirs[i % 2];
                let (nr, ns) = (r.fetch(pr), s.fetch(ps));
                gather(&mut left, &nr, &nr.sweep_order(0, dir), dir);
                gather(&mut right, &ns, &ns.sweep_order(0, dir), dir);
            }
            left.len() + right.len()
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sweep_optimizations,
    bench_leaf_kernel,
    bench_leaf_prepare
);
criterion_main!(benches);
