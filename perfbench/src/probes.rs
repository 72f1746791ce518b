//! Layer probes: timed calls into one layer's public functions on the
//! workload's own data, plus the knob ablations.

use std::time::Instant;

use amdj_core::{
    idj_resumable, AmIdjOptions, Checkpointed, EngineSnapshot, ItemRef, JoinConfig, JoinStats,
    Pair, Partition, PauseCtl, ResultPair,
};
use amdj_geom::Rect;
use amdj_rtree::RTree;
use amdj_storage::{PageId, SpillQueue, SpillQueueConfig};

use crate::harness::{ms_since, Phase};
use crate::report::Metrics;
use crate::stats::{median, Tally};
use crate::trace::Tracer;

/// Every page id of `tree`, breadth first from the root.
fn page_ids(tree: &RTree<2>) -> Vec<PageId> {
    let mut ids: Vec<PageId> = tree.root_page().into_iter().collect();
    let mut i = 0;
    while i < ids.len() {
        let node = tree.fetch(ids[i]);
        if !node.is_leaf() {
            ids.extend(node.entries.iter().map(|e| PageId(e.child)));
        }
        i += 1;
    }
    ids
}

/// `rtree.fetch_cold_us` and `rtree.fetch_warm_us`: clear the node
/// buffer and fetch every page of both trees, then fetch again the pages
/// the buffer still holds (the last quarter of its capacity), many times.
pub fn rtree_fetch(r: &RTree<2>, s: &RTree<2>, tracer: &Tracer, parent: u64, m: &mut Metrics) {
    let set = tracer.span("probe_set", parent, 0);
    let (mut cold_ns, mut cold_n, mut warm_ns, mut warm_n) = (0u128, 0usize, 0u128, 0usize);
    for tree in [r, s] {
        let ids = page_ids(tree);
        tree.clear_buffer();
        let probe = tracer.span("probe", set.id(), set.op());
        let t = Instant::now();
        for &pid in &ids {
            std::hint::black_box(tree.fetch(pid));
        }
        cold_ns += t.elapsed().as_nanos();
        cold_n += ids.len();
        drop(probe);
        let resident = tree.params().buffer_bytes / tree.params().page_size / 4;
        let hot = &ids[ids.len().saturating_sub(resident)..];
        let probe = tracer.span("probe", set.id(), set.op());
        let t = Instant::now();
        for _ in 0..20 {
            for &pid in hot {
                std::hint::black_box(tree.fetch(pid));
            }
        }
        warm_ns += t.elapsed().as_nanos();
        warm_n += 20 * hot.len();
        drop(probe);
    }
    m.put(
        "rtree.fetch_cold_us",
        cold_ns as f64 / 1e3 / cold_n.max(1) as f64,
        "us",
        format!("per fetch after clear_buffer, {cold_n} pages"),
    );
    m.put(
        "rtree.fetch_warm_us",
        warm_ns as f64 / 1e3 / warm_n.max(1) as f64,
        "us",
        format!("per fetch of a resident page, {warm_n} fetches"),
    );
}

/// `spill.push_pop_ns`: pushes `n` main-queue pairs with scattered keys
/// through a `SpillQueue` at the engine's 512 KB budget, then pops them
/// all, checking the keys come out ascending.
pub fn spill_push_pop(n: u64, tracer: &Tracer, parent: u64, m: &mut Metrics) {
    let n = n.clamp(1, 2_000_000);
    let set = tracer.span("probe_set", parent, 0);
    let probe = tracer.span("probe", set.id(), set.op());
    let cfg = JoinConfig::default();
    let mut q = SpillQueue::new(SpillQueueConfig::budgeted(cfg.queue_mem_bytes, Vec::new()));
    let mbr = Rect::new([0.25, 0.25], [0.5, 0.5]);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let t = Instant::now();
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        q.push(Pair::<2> {
            dist: (x >> 11) as f64 / (1u64 << 53) as f64,
            a: ItemRef::Node { page: i, level: 0 },
            b: ItemRef::Object { oid: i },
            a_mbr: mbr,
            b_mbr: mbr,
        });
    }
    let mut last = f64::NEG_INFINITY;
    let mut ordered = true;
    while let Some(p) = q.pop() {
        ordered &= p.dist >= last;
        last = p.dist;
    }
    let ns = t.elapsed().as_nanos() as f64 / n as f64;
    drop(probe);
    assert!(ordered, "SpillQueue popped keys out of order");
    m.put(
        "spill.push_pop_ns",
        ns,
        "ns",
        format!(
            "per push+pop of {n} pairs, {} pages written",
            q.disk_stats().pages_written
        ),
    );
}

/// Reps of each configuration in the ablation probes.
const ABLATION_REPS: usize = 3;

/// The knob ablations: each configuration runs `cycle` (which checks its
/// outputs against the workload's reference into the phase's tally)
/// [`ABLATION_REPS`] times, interleaved with the default configuration;
/// each reports its median cycle time over the default's median.
pub fn ablations(
    mut cycle: impl FnMut(&JoinConfig, &mut Phase),
    tracer: &Tracer,
    parent: u64,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let def = JoinConfig::default();
    let variants: [(&str, JoinConfig); 6] = [
        ("default", def.clone()),
        (
            "ablation.prefilter_off",
            JoinConfig {
                quantized_prefilter: false,
                ..def.clone()
            },
        ),
        (
            "ablation.scalar_leaf",
            JoinConfig {
                batched_leaf_sweep: false,
                ..def.clone()
            },
        ),
        (
            "ablation.steal_off",
            JoinConfig {
                steal: false,
                ..def.clone()
            },
        ),
        (
            "ablation.round_robin",
            JoinConfig {
                partition: Partition::RoundRobin,
                ..def.clone()
            },
        ),
        (
            "ablation.partitions_8",
            JoinConfig {
                partitions: Some(8),
                ..def.clone()
            },
        ),
    ];
    let set = tracer.span("probe_set", parent, 0);
    let mut times = vec![Vec::new(); variants.len()];
    for _ in 0..ABLATION_REPS {
        for (i, (_, cfg)) in variants.iter().enumerate() {
            let mut phase = Phase::default();
            let probe = tracer.span("probe", set.id(), set.op());
            let t = Instant::now();
            cycle(cfg, &mut phase);
            times[i].push(ms_since(t));
            drop(probe);
            tally.absorb(phase.tally);
        }
    }
    let base = median(&times[0]);
    for (i, (name, _)) in variants.iter().enumerate().skip(1) {
        let med = median(&times[i]);
        m.put(
            name,
            med / base,
            "ratio",
            format!("median {med:.1} ms / default {base:.1} ms, {ABLATION_REPS} reps"),
        );
    }
}

/// What one replay of the serve session's episode loop measured.
pub struct Episodes {
    /// The cursor's results.
    pub results: Vec<ResultPair>,
    /// Counters summed over every episode.
    pub stats: JoinStats,
}

/// Replays a serve cursor's episode loop: `idj_resumable` with
/// `PauseCtl::every(episode_expansions)` until done, encoding each
/// suspension's snapshot and resuming from the decoded bytes.
pub fn session_episodes(
    r: &RTree<2>,
    s: &RTree<2>,
    take: usize,
    episode_expansions: u64,
    tracer: &Tracer,
    parent: u64,
    m: &mut Metrics,
) -> Result<Episodes, String> {
    let cfg = JoinConfig::default();
    let opts = AmIdjOptions::default();
    let set = tracer.span("probe_set", parent, 0);
    let (mut episode_ms, mut encode_ms, mut decode_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0usize;
    let mut stats = JoinStats::default();
    let mut resume: Option<EngineSnapshot<2>> = None;
    let results = loop {
        let ctl = PauseCtl::every(episode_expansions);
        let probe = tracer.span("probe", set.id(), set.op());
        let t = Instant::now();
        let step = idj_resumable(r, s, take, &cfg, &opts, 1, None, resume.take(), Some(&ctl))
            .map_err(|e| e.to_string())?;
        episode_ms.push(ms_since(t));
        drop(probe);
        match step {
            Checkpointed::Done(out) => {
                add_episode(&mut stats, &out.stats);
                break out.results;
            }
            Checkpointed::Suspended(snap, st) => {
                add_episode(&mut stats, &st);
                let probe = tracer.span("probe", set.id(), set.op());
                let t = Instant::now();
                let enc = snap.encode();
                encode_ms.push(ms_since(t));
                drop(probe);
                bytes = enc.len();
                drop(snap);
                let probe = tracer.span("probe", set.id(), set.op());
                let t = Instant::now();
                let dec = EngineSnapshot::<2>::decode(&enc).map_err(|e| e.to_string())?;
                decode_ms.push(ms_since(t));
                drop(probe);
                resume = Some(dec);
            }
        }
    };
    let n = episode_ms.len();
    let note = format!("{n} episodes of {episode_expansions} expansions, take {take}");
    m.put("session.episodes_per_cursor", n as f64, "count", &note);
    m.put(
        "session.episode_ms",
        median(&episode_ms),
        "ms",
        format!("median; {note}"),
    );
    let snaps = encode_ms.len();
    if snaps > 0 {
        m.put("snapshot.bytes", bytes as f64, "bytes", "last suspension");
        m.put(
            "snapshot.encode_ms",
            median(&encode_ms),
            "ms",
            format!("median of {snaps}"),
        );
        m.put(
            "snapshot.decode_ms",
            median(&decode_ms),
            "ms",
            format!("median of {snaps}"),
        );
    }
    Ok(Episodes { results, stats })
}

/// Adds one episode's counters to a cursor's running totals: work sums,
/// stage counts keep the latest.
fn add_episode(total: &mut JoinStats, ep: &JoinStats) {
    let stages = total.stages.max(ep.stages);
    total.absorb_worker(ep);
    total.node_requests += ep.node_requests;
    total.stages = stages;
}
