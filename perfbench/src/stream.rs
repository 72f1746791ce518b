//! `uc-stream`: one in-process client streams AM-IDJ cursors over
//! uniform × clustered points at n = 50K, pulling 100-pair batches until
//! 10K pairs, and checks each stream against a B-KDJ reference prefix.

use std::time::Instant;

use amdj_core::{am_kdj, b_kdj, par_am_kdj, AmIdj, AmIdjOptions, AmKdjOptions, JoinConfig};
use amdj_datagen::{clustered_points, uniform_points, unit_universe};
use amdj_rtree::{RTree, RTreeParams};

use crate::harness::{ms_since, Phase, Runner, BATCH};
use crate::report::Metrics;
use crate::stats::{same_dists, Tally};
use crate::trace::Tracer;
use crate::{probes, Args};

/// Points per side.
pub const N: usize = 50_000;

/// Pairs each cursor streams.
pub const TAKE: usize = 10_000;

/// k of the ablation probes' KDJ calls.
const ABLATION_K: usize = 1_000;

/// The ROADMAP's standard pair: `n` uniform points × `n` points in 16
/// Gaussian clusters (spread 0.02), both from `seed`.
pub fn uc_trees(n: usize, seed: u64) -> (RTree<2>, RTree<2>) {
    let u = uniform_points(n, unit_universe(), seed);
    let c = clustered_points(n, 16, 0.02, unit_universe(), seed.wrapping_add(1));
    (
        RTree::bulk_load(RTreeParams::paper_defaults(), u),
        RTree::bulk_load(RTreeParams::paper_defaults(), c),
    )
}

/// Streams one cursor in [`BATCH`]-pair pulls, checks it, and records
/// its latencies and counters.
fn cursor(
    r: &RTree<2>,
    s: &RTree<2>,
    reference: &[f64],
    tracer: &Tracer,
    parent: u64,
    phase: &mut Phase,
) {
    let span = tracer.span("cursor", parent, 0);
    let t = Instant::now();
    let mut cur = AmIdj::new(r, s, &JoinConfig::default(), AmIdjOptions::default());
    let mut got = Vec::with_capacity(TAKE);
    let mut first_ms = 0.0;
    while got.len() < TAKE {
        let _pull = tracer.span("pull", span.id(), span.op());
        let before = got.len();
        while got.len() < (before + BATCH).min(TAKE) {
            match cur.next() {
                Some(p) => got.push(p.dist),
                None => break,
            }
        }
        if before == 0 {
            first_ms = ms_since(t);
        }
        if got.len() == before {
            break;
        }
    }
    let ms = ms_since(t);
    drop(span);
    phase.cursor(first_ms, ms);
    phase
        .tally
        .record(same_dists(reference, got.iter().copied()));
    phase.stats.push(cur.stats());
}

/// Datasets a run pools, each with its own cluster centres.
pub const DATASETS: u64 = 4;

/// The workload.
pub fn run(args: &Args, tracer: &Tracer, m: &mut Metrics) -> Tally {
    let threads = crate::thread_cap();
    let mut run = Runner::new(args, tracer, DATASETS);
    let off = Tracer::new(false);
    let seeds = run.seeds();
    for (j, &seed) in seeds.iter().enumerate() {
        let (r, s) = run.setup(|| uc_trees(N, seed));
        let reference: Vec<f64> = b_kdj(&r, &s, TAKE, &JoinConfig::default())
            .results
            .iter()
            .map(|p| p.dist)
            .collect();
        let mut warm = Phase::default();
        cursor(&r, &s, &reference, &off, 0, &mut warm);
        run.tally.absorb(warm.tally);
        run.measure(|t, parent, dur| {
            let mut p = Phase::default();
            let start = Instant::now();
            let mut n = 0u64;
            while n == 0 || start.elapsed() < dur {
                cursor(&r, &s, &reference, t, parent, &mut p);
                n += 1;
            }
            p.rated(n, n * TAKE as u64, start.elapsed())
        });
        if tracer.enabled() && j + 1 == seeds.len() {
            let root = tracer.span("workload", 0, 0);
            let traced = run.traced();
            traced.layer_counters(m, "cursor");
            let ins = traced.stats.iter().map(|s| s.mainq_insertions).sum::<u64>()
                / traced.stats.len().max(1) as u64;
            probes::rtree_fetch(&r, &s, tracer, root.id(), m);
            probes::spill_push_pop(ins, tracer, root.id(), m);
            let cycle = |cfg: &JoinConfig, p: &mut Phase| {
                let k = ABLATION_K;
                for out in [
                    am_kdj(&r, &s, k, cfg, &AmKdjOptions::default()),
                    par_am_kdj(&r, &s, k, cfg, &AmKdjOptions::default(), threads),
                ] {
                    let dists = out.results.iter().map(|q| q.dist);
                    p.tally.record(same_dists(&reference[..k], dists));
                }
            };
            probes::ablations(cycle, tracer, root.id(), m, &mut run.tally);
        }
    }
    run.finish("uniform + clustered generation + 2 bulk loads", m)
}
