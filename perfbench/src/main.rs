//! The repository's benchmark: drives the AMDJ join stack through its
//! public entry points on three workloads, checks every output, and
//! prints end-to-end metrics (untraced run) or per-layer metrics (traced
//! run).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload arizona-kdj --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are a
//! human-readable report. With `--trace 1` spans are written to
//! `.bench_trace/<workload>-seed<seed>.jsonl` under the working
//! directory.
//!
//! All load is closed loop from this one process: each client sends its
//! next request only after the previous reply.

mod arizona;
mod harness;
mod probes;
mod report;
mod served;
mod stats;
mod stream;
mod trace;
mod wire;

use std::time::Instant;

use report::Metrics;
use trace::Tracer;

/// End-to-end metrics, as listed in `BENCHMARK.json` (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("first_pairs_mean_ms", "ms"),
    ("query_mean_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("pairs_per_s", "1/s"),
];

/// Per-layer metrics, as listed in `BENCHMARK.json` (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rtree.node_requests", "count"),
    ("rtree.buffer_misses", "count"),
    ("rtree.buffer_evictions", "count"),
    ("rtree.buffer_hit_rate", "ratio"),
    ("rtree.fetch_cold_us", "us"),
    ("rtree.fetch_warm_us", "us"),
    ("engine.real_dist", "count"),
    ("engine.axis_dist", "count"),
    ("engine.exact_dist_skipped", "count"),
    ("engine.prefilter_reject_rate", "ratio"),
    ("mainq.insertions", "count"),
    ("spill.page_writes", "count"),
    ("spill.page_reads", "count"),
    ("spill.push_pop_ns", "ns"),
    ("distq.insertions", "count"),
    ("stage.stages", "count"),
    ("stage.stage2_share", "ratio"),
    ("stage.compq_insertions", "count"),
    ("stage.comp_replays", "count"),
    ("steal.pairs_stolen", "count"),
    ("steal.success_rate", "ratio"),
    ("steal.barrier_idle_ms", "ms"),
    ("bound.tightenings", "count"),
    ("session.episodes_per_cursor", "count"),
    ("session.episode_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("admission.wait_p50_ms", "ms"),
    ("admission.wait_max_ms", "ms"),
    ("admission.rejections", "count"),
    ("codec.decode_us", "us"),
    ("codec.encode_us_per_pair", "us"),
    ("codec.response_bytes_per_pair", "bytes"),
    ("transport.rtt_us", "us"),
    ("ablation.prefilter_off", "ratio"),
    ("ablation.scalar_leaf", "ratio"),
    ("ablation.steal_off", "ratio"),
    ("ablation.round_robin", "ratio"),
    ("ablation.partitions_8", "ratio"),
    ("self.workload_ms", "ms"),
    ("self.kdj_ms", "ms"),
    ("self.cursor_ms", "ms"),
    ("self.pull_ms", "ms"),
    ("self.request_ms", "ms"),
    ("self.probe_set_ms", "ms"),
    ("self.probe_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// The command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = val()? == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Threads the benchmark may run queries on: at most 2, and never more
/// than the machine offers.
pub fn thread_cap() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cap = cores.min(2);
    eprintln!(
        "perfbench: available_parallelism = {cores}; query threads and connections capped at {cap}"
    );
    cap
}

/// What each per-layer metric's layer should move, on which workload
/// (metric name prefix, then the end-to-end metric as the report names it
/// and the workload).
pub const LAYER_MAP: &[(&str, &str)] = &[
    ("rtree.", "kdj_p50_ms on arizona-kdj"),
    ("engine.", "kdj_p50_ms on arizona-kdj"),
    (
        "mainq.",
        "kdj_tail_ms on arizona-kdj; cursor_p50_ms on uc-stream",
    ),
    (
        "spill.",
        "kdj_tail_ms on arizona-kdj; cursor_p50_ms on uc-stream",
    ),
    ("distq.", "kdj_tail_ms on arizona-kdj"),
    (
        "stage.",
        "first_batch_p50_ms on uc-stream; no move on arizona-kdj",
    ),
    ("steal.", "kdj_p50_ms on arizona-kdj only"),
    ("bound.", "kdj_p50_ms on arizona-kdj only"),
    (
        "session.",
        "first_batch_p50_ms, cursor_p50_ms, peak_rss_mb on serve-mixed",
    ),
    (
        "snapshot.",
        "first_batch_p50_ms, cursor_p50_ms, peak_rss_mb on serve-mixed",
    ),
    ("admission.", "kdj_tail_ms on serve-mixed"),
    ("codec.", "kdj_p50_ms on serve-mixed"),
    ("transport.", "kdj_p50_ms on serve-mixed"),
    (
        "ablation.",
        "kdj_p50_ms on the workload whose cycle it reruns",
    ),
    ("self.", "span self time of the benchmark's own levels"),
    ("trace.", "traced vs untraced queries/s"),
];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let started = Instant::now();
    let mut metrics = Metrics::default();
    let tally = match args.workload.as_str() {
        "arizona-kdj" => arizona::run(&args, &tracer, &mut metrics),
        "uc-stream" => stream::run(&args, &tracer, &mut metrics),
        "serve-mixed" => served::run(&args, &tracer, &mut metrics),
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` (arizona-kdj, uc-stream, serve-mixed)"
            );
            std::process::exit(2);
        }
    };
    let peak = harness::status_mb("VmHWM:").unwrap_or(0.0);
    metrics.put("peak_rss_mb", peak, "MB", "VmHWM, whole run");
    metrics.put(
        "failed_frac",
        tally.failed_frac(),
        "ratio",
        format!("{} of {} ops failed", tally.failed, tally.attempted),
    );
    if args.trace {
        let spans = tracer.spans();
        for (name, (ms, n)) in trace::self_ms_by_name(&spans) {
            metrics.put(
                &format!("self.{name}_ms"),
                ms,
                "ms",
                format!("mean self time, n={n}"),
            );
        }
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, trace::to_jsonl(&spans)))
        {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    let title = format!(
        "{} seed={} seconds={} trace={} wall={:.1}s",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        started.elapsed().as_secs_f64()
    );
    report::print_human(&title, &metrics, args.trace.then_some(LAYER_MAP));
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        if let Some((missing, _)) = names.iter().find(|(n, _)| metrics.get(n).is_none()) {
            eprintln!("perfbench: end-to-end metric {missing} was not measured");
            std::process::exit(1);
        }
    }
    report::print_json(tally.failed == 0, tally, &metrics, names);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::Json;

    /// `BENCHMARK.json` lists exactly the metrics this program prints, in
    /// the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::arr)
                .expect("metric list")
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("metric without name or unit"),
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
