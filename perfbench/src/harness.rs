//! The measurement harness every workload shares: per-phase samples, the
//! loop over a run's datasets, and the metrics derived from them.
//!
//! A run can measure several datasets, each generated from its own seed
//! derived from `--seed`, and pool their samples, so that one dataset's
//! geometry (where its towns or clusters fall) weighs less in the run's
//! figures.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use amdj_core::JoinStats;

use crate::report::{self, Metrics};
use crate::stats::{median, percentile, sorted, Tally};
use crate::trace::Tracer;
use crate::Args;

/// Pairs per batch: the unit of "first batch" latency and of cursor pulls.
pub const BATCH: usize = 100;

/// The measurements of one timed phase.
#[derive(Default)]
pub struct Phase {
    /// One-shot KDJ call (or request) latencies, ms.
    pub kdj_ms: Vec<f64>,
    /// Cursor open to its first [`BATCH`] pairs delivered, ms.
    pub first_batch_ms: Vec<f64>,
    /// Cursor open to all `take` pairs delivered, ms.
    pub cursor_ms: Vec<f64>,
    /// Query start to its first [`BATCH`] pairs in hand, ms, over every
    /// query (a one-shot KDJ hands over all its pairs when it returns).
    pub first_pairs_ms: Vec<f64>,
    /// Query start to all its pairs in hand, ms, over every query.
    pub query_ms: Vec<f64>,
    /// Completed queries per second.
    pub queries_per_s: f64,
    /// Checked result pairs per second.
    pub pairs_per_s: f64,
    /// Wall time the phase measured, s.
    pub secs: f64,
    /// Engine counters of each in-process query.
    pub stats: Vec<JoinStats>,
    /// Engine counters of each parallel query.
    pub par_stats: Vec<JoinStats>,
    /// Checks.
    pub tally: Tally,
}

impl Phase {
    /// Sets one closed-loop client's rates: its `queries` queries,
    /// delivering `pairs` pairs, took `elapsed`.
    pub fn rated(mut self, queries: u64, pairs: u64, elapsed: Duration) -> Phase {
        self.secs = elapsed.as_secs_f64().max(1e-9);
        self.queries_per_s = queries as f64 / self.secs;
        self.pairs_per_s = pairs as f64 / self.secs;
        self
    }

    fn extend(&mut self, other: Phase) {
        self.kdj_ms.extend(other.kdj_ms);
        self.first_batch_ms.extend(other.first_batch_ms);
        self.cursor_ms.extend(other.cursor_ms);
        self.first_pairs_ms.extend(other.first_pairs_ms);
        self.query_ms.extend(other.query_ms);
        self.stats.extend(other.stats);
        self.par_stats.extend(other.par_stats);
        self.tally.absorb(other.tally);
    }

    /// Adds a concurrent client's measurements: rates add up.
    pub fn merge(&mut self, other: Phase) {
        self.queries_per_s += other.queries_per_s;
        self.pairs_per_s += other.pairs_per_s;
        self.secs = self.secs.max(other.secs);
        self.extend(other);
    }

    /// Appends a later phase's measurements: rates are weighted by the
    /// time each phase measured.
    pub fn chain(&mut self, other: Phase) {
        let secs = self.secs + other.secs;
        if secs > 0.0 {
            self.queries_per_s =
                (self.queries_per_s * self.secs + other.queries_per_s * other.secs) / secs;
            self.pairs_per_s =
                (self.pairs_per_s * self.secs + other.pairs_per_s * other.secs) / secs;
        }
        self.secs = secs;
        self.extend(other);
    }

    /// Records a one-shot KDJ that took `ms`.
    pub fn kdj(&mut self, ms: f64) {
        self.kdj_ms.push(ms);
        self.first_pairs_ms.push(ms);
        self.query_ms.push(ms);
    }

    /// Records a cursor whose first batch took `first_ms` and whose
    /// whole stream took `ms`.
    pub fn cursor(&mut self, first_ms: f64, ms: f64) {
        self.first_batch_ms.push(first_ms);
        self.cursor_ms.push(ms);
        self.first_pairs_ms.push(first_ms);
        self.query_ms.push(ms);
    }

    /// The end-to-end metrics this phase measured.
    pub fn end_to_end(&self, out: &mut Metrics) {
        report::put_latency(out, "first_pairs", &self.first_pairs_ms);
        report::put_latency(out, "query", &self.query_ms);
        report::put_latency(out, "kdj", &self.kdj_ms);
        report::put_latency(out, "first_batch", &self.first_batch_ms);
        report::put_latency(out, "cursor", &self.cursor_ms);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let n = self.query_ms.len();
        out.put(
            "first_pairs_mean_ms",
            mean(&self.first_pairs_ms),
            "ms",
            format!("n={n}"),
        );
        out.put(
            "query_mean_ms",
            mean(&self.query_ms),
            "ms",
            format!("n={n}"),
        );
        out.put("queries_per_s", self.queries_per_s, "1/s", format!("n={n}"));
        out.put("pairs_per_s", self.pairs_per_s, "1/s", "checked pairs");
    }

    /// Mean per-query engine counters (the rtree, engine, queue and
    /// stage rows of the layer table), plus the parallel-only rows.
    pub fn layer_counters(&self, out: &mut Metrics, source: &str) {
        put_counters(out, &self.stats, source);
        put_steal(out, &self.par_stats);
    }
}

/// Runs a workload's datasets one after another and pools what they
/// measure.
pub struct Runner<'t> {
    /// The command line.
    pub args: &'t Args,
    /// The span recorder (enabled with `--trace 1`).
    pub tracer: &'t Tracer,
    datasets: u64,
    setup_s: Vec<f64>,
    plain: Phase,
    traced: Phase,
    rss_mb: Vec<f64>,
    /// Checks made outside the measured phases (warm-up, probes).
    pub tally: Tally,
}

impl<'t> Runner<'t> {
    /// A runner over `datasets` datasets.
    pub fn new(args: &'t Args, tracer: &'t Tracer, datasets: u64) -> Self {
        Runner {
            args,
            tracer,
            datasets,
            setup_s: Vec::new(),
            plain: Phase::default(),
            traced: Phase::default(),
            rss_mb: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// The datasets' seeds: `datasets` consecutive seeds from
    /// `--seed × datasets`, so runs with different seeds share none.
    pub fn seeds(&self) -> Vec<u64> {
        let base = self.args.seed.wrapping_mul(self.datasets);
        (0..self.datasets).map(|j| base.wrapping_add(j)).collect()
    }

    /// Records one set-up time.
    pub fn record_setup(&mut self, secs: f64) {
        self.setup_s.push(secs);
    }

    /// Times one set-up.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let v = f();
        self.record_setup(t.elapsed().as_secs_f64());
        v
    }

    /// Measures one dataset: `phase(tracer, parent, dur)` runs the
    /// workload's clients for `dur` under the span `parent`. Untraced,
    /// the dataset gets its share of `--seconds`; traced, half that share
    /// runs untraced and half traced under a `workload` span, and the
    /// difference between the halves is `trace.overhead_frac`.
    pub fn measure(&mut self, mut phase: impl FnMut(&Tracer, u64, Duration) -> Phase) {
        let share = Duration::from_secs_f64(self.args.seconds / self.datasets as f64);
        let stop = AtomicBool::new(false);
        let (tracer, plain, traced) = (self.tracer, &mut self.plain, &mut self.traced);
        let rss = std::thread::scope(|sc| {
            let sampler = sc.spawn(|| sample_rss(&stop));
            if tracer.enabled() {
                plain.chain(phase(&Tracer::new(false), 0, share / 2));
                let root = tracer.span("workload", 0, 0);
                traced.chain(phase(tracer, root.id(), share / 2));
            } else {
                plain.chain(phase(tracer, 0, share));
            }
            stop.store(true, Ordering::Relaxed);
            sampler.join().expect("RSS sampler panicked")
        });
        self.rss_mb.extend(rss);
    }

    /// The traced phases so far, pooled.
    pub fn traced(&self) -> &Phase {
        &self.traced
    }

    /// Puts the run's metrics into `out` and returns every check made.
    pub fn finish(self, what: &str, out: &mut Metrics) -> Tally {
        out.put(
            "setup_s",
            median(&self.setup_s),
            "s",
            format!("median of {}: {what}", self.setup_s.len()),
        );
        if !self.rss_mb.is_empty() {
            let rss = sorted(&self.rss_mb);
            let note = format!("{} VmRSS samples while measuring", rss.len());
            out.put("rss_p50_mb", median(&rss), "MB", &note);
            out.put("rss_p90_mb", percentile(&rss, 90.0), "MB", &note);
        }
        let mut tally = self.tally;
        tally.absorb(self.plain.tally);
        tally.absorb(self.traced.tally);
        if self.tracer.enabled() {
            let (a, b) = (self.plain.queries_per_s, self.traced.queries_per_s);
            out.put(
                "trace.overhead_frac",
                a / b.max(1e-12) - 1.0,
                "ratio",
                format!("untraced {a:.3} vs traced {b:.3} queries/s"),
            );
        } else {
            self.plain.end_to_end(out);
        }
        tally
    }
}

/// The per-query means of the counters `JoinStats` carries.
pub fn put_counters(out: &mut Metrics, all: &[JoinStats], source: &str) {
    if all.is_empty() {
        return;
    }
    let n = all.len() as f64;
    let mean = |f: &dyn Fn(&JoinStats) -> u64| all.iter().map(|s| f(s) as f64).sum::<f64>() / n;
    let note = format!("mean per {source}, n={}", all.len());
    let mut put = |name: &str, v: f64, unit: &'static str| out.put(name, v, unit, &note);
    put("rtree.node_requests", mean(&|s| s.node_requests), "count");
    put("rtree.buffer_misses", mean(&|s| s.buffer_misses), "count");
    put(
        "rtree.buffer_evictions",
        mean(&|s| s.buffer_evictions),
        "count",
    );
    let (hits, misses) = (mean(&|s| s.buffer_hits), mean(&|s| s.buffer_misses));
    put(
        "rtree.buffer_hit_rate",
        hits / (hits + misses).max(1e-12),
        "ratio",
    );
    put("engine.real_dist", mean(&|s| s.real_dist), "count");
    put("engine.axis_dist", mean(&|s| s.axis_dist), "count");
    put(
        "engine.exact_dist_skipped",
        mean(&|s| s.exact_dist_skipped),
        "count",
    );
    let (rejects, real) = (mean(&|s| s.quantized_rejects), mean(&|s| s.real_dist));
    put(
        "engine.prefilter_reject_rate",
        rejects / (real + rejects).max(1e-12),
        "ratio",
    );
    put("mainq.insertions", mean(&|s| s.mainq_insertions), "count");
    put("spill.page_writes", mean(&|s| s.queue_page_writes), "count");
    put("spill.page_reads", mean(&|s| s.queue_page_reads), "count");
    put("distq.insertions", mean(&|s| s.distq_insertions), "count");
    put("stage.stages", mean(&|s| u64::from(s.stages)), "count");
    let share = all
        .iter()
        .map(|s| {
            s.stage2_expansions as f64 / (s.stage1_expansions + s.stage2_expansions).max(1) as f64
        })
        .sum::<f64>()
        / n;
    put("stage.stage2_share", share, "ratio");
    put(
        "stage.compq_insertions",
        mean(&|s| s.compq_insertions),
        "count",
    );
    put("stage.comp_replays", mean(&|s| s.comp_replays), "count");
}

/// The work-stealing and shared-bound rows, over parallel queries.
fn put_steal(out: &mut Metrics, par: &[JoinStats]) {
    if par.is_empty() {
        return;
    }
    let n = par.len() as f64;
    let note = format!("mean per parallel call, n={}", par.len());
    let stolen: u64 = par.iter().map(|s| s.pairs_stolen).sum();
    let attempts: u64 = par.iter().map(|s| s.steal_attempts).sum();
    out.put("steal.pairs_stolen", stolen as f64 / n, "count", &note);
    out.put(
        "steal.success_rate",
        stolen as f64 / attempts.max(1) as f64,
        "ratio",
        format!("{stolen} items stolen in {attempts} steal probes"),
    );
    let idle_ms = par.iter().map(|s| s.barrier_idle_ns as f64).sum::<f64>() / n / 1e6;
    out.put("steal.barrier_idle_ms", idle_ms, "ms", &note);
    let tight = par.iter().map(|s| s.bound_tightenings as f64).sum::<f64>() / n;
    out.put("bound.tightenings", tight, "count", &note);
}

/// Interval between resident-set samples.
const RSS_EVERY: Duration = Duration::from_millis(20);

/// Samples the process's resident set size (MB) until `stop` rises.
fn sample_rss(stop: &AtomicBool) -> Vec<f64> {
    let mut out = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        if let Some(mb) = status_mb("VmRSS:") {
            out.push(mb);
        }
        std::thread::sleep(RSS_EVERY);
    }
    out
}

/// A `kB` field of `/proc/self/status`, in MB.
pub fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix(field))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(queries: u64, secs: u64) -> Phase {
        Phase::default().rated(queries, queries * 10, Duration::from_secs(secs))
    }

    #[test]
    fn concurrent_rates_add_and_sequential_rates_weight_by_time() {
        let mut a = client(10, 2);
        a.merge(client(30, 3));
        assert_eq!(a.queries_per_s, 5.0 + 10.0);
        assert_eq!(a.secs, 3.0);
        // 60 queries over 3 s then 10 over 2 s: 70 over 5 s.
        let mut b = client(60, 3);
        b.chain(client(10, 2));
        assert!((b.queries_per_s - 14.0).abs() < 1e-12);
        assert!((b.pairs_per_s - 140.0).abs() < 1e-9);
        assert_eq!(b.secs, 5.0);
    }
}
