//! `arizona-kdj`: the paper's own workload. One in-process client runs a
//! fixed cycle of one-shot k-distance joins over TIGER-like streets ×
//! hydro at scale 0.19, checking each against a B-KDJ reference.

use std::time::{Duration, Instant};

use amdj_core::{am_kdj, b_kdj, par_am_kdj, AmKdjOptions, JoinConfig, JoinOutput};
use amdj_datagen::tiger;
use amdj_rtree::{RTree, RTreeParams};

use crate::harness::{ms_since, Phase, Runner};
use crate::report::Metrics;
use crate::stats::{same_dists, Tally};
use crate::trace::Tracer;
use crate::{probes, Args};

/// The TIGER scale: 120,358 streets × 36,032 hydro objects.
pub const SCALE: f64 = 0.19;

/// A one-shot join entry point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// `am_kdj`
    Am,
    /// `b_kdj`
    B,
    /// `par_am_kdj`
    ParAm,
}

/// The fixed call cycle.
pub const CYCLE: &[(Algo, usize)] = &[
    (Algo::Am, 1_000),
    (Algo::Am, 10_000),
    (Algo::Am, 100_000),
    (Algo::B, 10_000),
    (Algo::ParAm, 10_000),
];

/// Calls one entry point.
pub fn call(
    r: &RTree<2>,
    s: &RTree<2>,
    algo: Algo,
    k: usize,
    cfg: &JoinConfig,
    threads: usize,
) -> JoinOutput {
    match algo {
        Algo::Am => am_kdj(r, s, k, cfg, &AmKdjOptions::default()),
        Algo::B => b_kdj(r, s, k, cfg),
        Algo::ParAm => par_am_kdj(r, s, k, cfg, &AmKdjOptions::default(), threads),
    }
}

/// Both trees, bulk loaded from the seed's streets and hydro.
pub fn trees(seed: u64) -> (RTree<2>, RTree<2>) {
    let (streets, hydro) = tiger::arizona_workload(SCALE, seed);
    (
        RTree::bulk_load(RTreeParams::paper_defaults(), streets),
        RTree::bulk_load(RTreeParams::paper_defaults(), hydro),
    )
}

/// Runs `cycle` whole, `cfg` and `threads` as given, checking every
/// output's distances against `reference`. Records into `phase`.
#[allow(clippy::too_many_arguments)]
pub fn run_cycle(
    r: &RTree<2>,
    s: &RTree<2>,
    cycle: &[(Algo, usize)],
    cfg: &JoinConfig,
    threads: usize,
    reference: &[f64],
    tracer: &Tracer,
    parent: u64,
    phase: &mut Phase,
) {
    for &(algo, k) in cycle {
        let span = tracer.span("kdj", parent, 0);
        let t = Instant::now();
        let out = call(r, s, algo, k, cfg, threads);
        let ms = ms_since(t);
        drop(span);
        phase.kdj(ms);
        phase.tally.record(same_dists(
            &reference[..k],
            out.results.iter().map(|p| p.dist),
        ));
        if algo == Algo::ParAm {
            phase.par_stats.push(out.stats);
        }
        phase.stats.push(out.stats);
    }
}

/// Runs whole cycles until `dur` has passed.
fn timed_cycles(
    r: &RTree<2>,
    s: &RTree<2>,
    threads: usize,
    reference: &[f64],
    tracer: &Tracer,
    parent: u64,
    dur: Duration,
) -> Phase {
    let cfg = JoinConfig::default();
    let mut phase = Phase::default();
    let t = Instant::now();
    let mut cycles = 0;
    while cycles == 0 || t.elapsed() < dur {
        run_cycle(
            r, s, CYCLE, &cfg, threads, reference, tracer, parent, &mut phase,
        );
        cycles += 1;
    }
    let (queries, pairs) = (
        (cycles * CYCLE.len()) as u64,
        cycles as u64 * CYCLE.iter().map(|c| c.1 as u64).sum::<u64>(),
    );
    phase.rated(queries, pairs, t.elapsed())
}

/// Datasets a run pools, each a TIGER geography of its own.
pub const DATASETS: u64 = 4;

/// The workload.
pub fn run(args: &Args, tracer: &Tracer, m: &mut Metrics) -> Tally {
    let threads = crate::thread_cap();
    let mut run = Runner::new(args, tracer, DATASETS);
    let cfg = JoinConfig::default();
    let off = Tracer::new(false);
    let seeds = run.seeds();
    for (j, &seed) in seeds.iter().enumerate() {
        let (r, s) = run.setup(|| trees(seed));
        let kmax = CYCLE.iter().map(|c| c.1).max().unwrap_or(0);
        let reference: Vec<f64> = b_kdj(&r, &s, kmax, &cfg)
            .results
            .iter()
            .map(|p| p.dist)
            .collect();
        // One untimed warm-up pass; its outputs are checked too.
        let mut warm = Phase::default();
        run_cycle(&r, &s, CYCLE, &cfg, threads, &reference, &off, 0, &mut warm);
        run.tally.absorb(warm.tally);
        run.measure(|t, parent, dur| timed_cycles(&r, &s, threads, &reference, t, parent, dur));
        if tracer.enabled() && j + 1 == seeds.len() {
            let root = tracer.span("workload", 0, 0);
            let traced = run.traced();
            traced.layer_counters(m, "KDJ call");
            let ins = traced.stats.iter().map(|s| s.mainq_insertions).sum::<u64>()
                / traced.stats.len().max(1) as u64;
            probes::rtree_fetch(&r, &s, tracer, root.id(), m);
            probes::spill_push_pop(ins, tracer, root.id(), m);
            let cycle = |cfg: &JoinConfig, p: &mut Phase| {
                run_cycle(&r, &s, CYCLE, cfg, threads, &reference, &off, 0, p)
            };
            probes::ablations(cycle, tracer, root.id(), m, &mut run.tally);
        }
    }
    run.finish("TIGER data generation + 2 bulk loads", m)
}
