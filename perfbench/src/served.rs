//! `serve-mixed`: closed-loop clients on TCP connections to one join
//! server over uniform × clustered points at n = 10K. Each connection
//! keeps one request in flight and interleaves one-shot `kdj` requests
//! with IDJ cursors; every stream, parsed back off the wire, is checked
//! bit for bit against the in-process one-shot.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use amdj_core::serve::codec::{QuerySpec, Request, Response};
use amdj_core::serve::transport::{serve_listener, TransportOptions};
use amdj_core::serve::{ServeOptions, Server};
use amdj_core::{am_kdj, AmIdj, AmIdjOptions, AmKdjOptions, JoinConfig, ResultPair};
use amdj_rtree::RTree;

use crate::harness::{ms_since, Phase, Runner, BATCH};
use crate::report::Metrics;
use crate::stats::{median, sorted, Tally};
use crate::stream::uc_trees;
use crate::trace::Tracer;
use crate::wire::{self, Json};
use crate::{probes, Args};

/// Points per side.
pub const N: usize = 10_000;

/// Pairs each cursor delivers.
pub const TAKE: usize = 1_000;

/// One query a connection runs.
#[derive(Clone, Copy, Debug)]
enum Query {
    /// A one-shot `kdj` request for k pairs.
    Kdj(usize),
    /// `idj_open` with take [`TAKE`], `idj_pull`s of [`BATCH`] until
    /// done, `idj_close`.
    Cursor,
}

/// `kdj` request pairs (k = 100, then k = 1K) per cursor in a cycle.
/// 120 requests take about as long as one cursor, so when one connection
/// streams its cursor the other mostly serves KDJ requests.
const KDJ_PAIRS: usize = 200;

/// Connection `conn`'s fixed cycle: [`KDJ_PAIRS`] `kdj` pairs and one
/// cursor. Odd connections start with the cursor, so the two
/// connections' cursors take turns instead of always running together.
fn cycle(conn: usize) -> Vec<Query> {
    let mut c: Vec<Query> = (0..KDJ_PAIRS)
        .flat_map(|_| [Query::Kdj(100), Query::Kdj(1_000)])
        .collect();
    c.push(Query::Cursor);
    if conn % 2 == 1 {
        c.rotate_right(1);
    }
    c
}

/// The warm-up pass on each dataset: it warms the node buffer and the
/// connections. Cursors are left out: each one's cost is dominated by
/// the fresh snapshot memory it allocates whether or not one ran before.
fn warm_up(_conn: usize) -> Vec<Query> {
    vec![Query::Kdj(100), Query::Kdj(1_000)]
}

/// The in-process one-shots every wire stream must equal.
struct Refs {
    kdj100: Vec<ResultPair>,
    kdj1k: Vec<ResultPair>,
    cursor: Vec<ResultPair>,
}

fn same_pairs(want: &[ResultPair], got: &[ResultPair]) -> bool {
    want.len() == got.len()
        && want
            .iter()
            .zip(got)
            .all(|(w, g)| w.r == g.r && w.s == g.s && w.dist.to_bits() == g.dist.to_bits())
}

/// Request and response lines kept for the codec probes.
#[derive(Default)]
struct Lines {
    requests: Vec<String>,
    responses: Vec<String>,
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Sends one request line and reads its response line.
    fn round_trip(&mut self, req: &str) -> std::io::Result<String> {
        let mut out = Vec::with_capacity(req.len() + 1);
        out.extend_from_slice(req.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("server closed the connection"));
        }
        Ok(line)
    }
}

/// Query and cursor ids are unique for the server's whole life, so its
/// per-query log keeps one row per query.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// One closed-loop client's cycles on one connection.
struct Client<'a> {
    conn: Conn,
    name: usize,
    cycle: Vec<Query>,
    refs: &'a Refs,
    tracer: &'a Tracer,
    parent: u64,
    lines: Option<&'a Mutex<Lines>>,
}

impl Client<'_> {
    fn request(&mut self, req: Request, parent: u64, op: u64) -> std::io::Result<String> {
        let line = req.encode();
        let span = self.tracer.span("request", parent, op);
        let resp = self.conn.round_trip(&line);
        drop(span);
        if let (Some(lines), Ok(resp)) = (self.lines, &resp) {
            let mut l = lines.lock().expect("line log poisoned");
            l.requests.push(line);
            l.responses.push(resp.clone());
        }
        resp
    }

    /// Runs one query; returns the pairs it delivered, or the I/O error
    /// that broke the connection.
    fn query(&mut self, q: Query, phase: &mut Phase) -> std::io::Result<u64> {
        let seq = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let spec = QuerySpec::default();
        match q {
            Query::Kdj(k) => {
                let want = if k == 100 {
                    &self.refs.kdj100
                } else {
                    &self.refs.kdj1k
                };
                let id = format!("k{seq}");
                let t = Instant::now();
                let req = Request::Kdj {
                    id,
                    k: k as u64,
                    spec,
                };
                let resp = self.request(req, self.parent, 0)?;
                let ms = ms_since(t);
                let ok = wire::parse_results(&resp)
                    .map(|got| got.done && same_pairs(want, &got.pairs))
                    .unwrap_or(false);
                phase.kdj(ms);
                phase.tally.record(ok);
                Ok(k as u64)
            }
            Query::Cursor => {
                let id = format!("c{seq}");
                let span = self.tracer.span("cursor", self.parent, 0);
                let (sid, op) = (span.id(), span.op());
                let t = Instant::now();
                let open = Request::IdjOpen {
                    id: id.clone(),
                    take: TAKE as u64,
                    spec,
                };
                let mut ok = wire::ok_response(&self.request(open, sid, op)?).is_ok();
                let mut got: Vec<ResultPair> = Vec::with_capacity(TAKE);
                let mut first_ms = 0.0;
                let mut pulls = 0;
                while ok {
                    let pull = Request::IdjPull {
                        id: id.clone(),
                        n: BATCH as u64,
                    };
                    let resp = self.request(pull, sid, op)?;
                    pulls += 1;
                    if pulls == 1 {
                        first_ms = ms_since(t);
                    }
                    match wire::parse_results(&resp) {
                        Ok(batch) => {
                            got.extend(batch.pairs);
                            ok = batch.delivered_total == got.len() as u64;
                            if batch.done {
                                break;
                            }
                        }
                        Err(_) => ok = false,
                    }
                    // A cursor that never says done is wrong.
                    ok &= pulls <= TAKE / BATCH + 1;
                }
                let ms = ms_since(t);
                let close = Request::IdjClose { id };
                ok &= wire::ok_response(&self.request(close, sid, op)?).is_ok();
                drop(span);
                ok &= same_pairs(&self.refs.cursor, &got);
                phase.cursor(first_ms, ms);
                phase.tally.record(ok);
                Ok(got.len() as u64)
            }
        }
    }

    /// Runs whole cycles until `dur` has passed.
    fn run(&mut self, dur: Duration) -> Phase {
        let mut p = Phase::default();
        let t = Instant::now();
        let (mut queries, mut pairs) = (0, 0);
        'outer: while queries == 0 || t.elapsed() < dur {
            for q in self.cycle.clone() {
                match self.query(q, &mut p) {
                    Ok(n) => {
                        queries += 1;
                        pairs += n;
                    }
                    Err(e) => {
                        eprintln!("perfbench: connection {} failed: {e}", self.name);
                        p.tally.record(false);
                        break 'outer;
                    }
                }
            }
        }
        p.rated(queries, pairs, t.elapsed())
    }
}

/// Runs `conns` clients concurrently, each repeating `cycle` whole
/// until `dur` has passed (at least once).
#[allow(clippy::too_many_arguments)]
fn clients(
    addr: SocketAddr,
    conns: usize,
    cycle: fn(usize) -> Vec<Query>,
    dur: Duration,
    refs: &Refs,
    tracer: &Tracer,
    parent: u64,
    lines: Option<&Mutex<Lines>>,
) -> Phase {
    let phases: Vec<Phase> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..conns)
            .map(|name| {
                sc.spawn(move || match Conn::connect(addr) {
                    Ok(conn) => Client {
                        conn,
                        name,
                        cycle: cycle(name),
                        refs,
                        tracer,
                        parent,
                        lines,
                    }
                    .run(dur),
                    Err(e) => {
                        eprintln!("perfbench: connect failed: {e}");
                        let mut p = Phase::default();
                        p.tally.record(false);
                        p
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Phase::default();
    for p in phases {
        total.merge(p);
    }
    total
}

/// Datasets a run pools, each with its own cluster centres.
pub const DATASETS: u64 = 1;

/// The workload.
pub fn run(args: &Args, tracer: &Tracer, m: &mut Metrics) -> Tally {
    let conns = crate::thread_cap();
    let mut run = Runner::new(args, tracer, DATASETS);
    let seeds = run.seeds();
    for (j, &seed) in seeds.iter().enumerate() {
        let t = Instant::now();
        let (r, s) = uc_trees(N, seed);
        let server = Server::new(&r, &s, ServeOptions::default());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("listener address");
        let stop = AtomicBool::new(false);
        std::thread::scope(|sc| {
            let topts = TransportOptions::default();
            let (server, stop) = (&server, &stop);
            let handle = sc.spawn(move || serve_listener(server, listener, &topts, stop));
            run.record_setup(t.elapsed().as_secs_f64());
            let last = j + 1 == seeds.len();
            drive(&mut run, (&r, &s), addr, conns, last, m);
            stop.store(true, Ordering::Relaxed);
            let ok = match handle.join() {
                Ok(Ok(_)) => true,
                Ok(Err(e)) => {
                    eprintln!("perfbench: listener failed: {e}");
                    false
                }
                Err(_) => {
                    eprintln!("perfbench: listener panicked");
                    false
                }
            };
            run.tally.record(ok);
        });
    }
    run.finish("generation + 2 bulk loads + listener start", m)
}

/// Everything after set-up, against a listening server: references,
/// warm-up, the measured phase, and on the last dataset of a traced run
/// the serve-layer probes.
fn drive(
    run: &mut Runner,
    (r, s): (&RTree<2>, &RTree<2>),
    addr: SocketAddr,
    conns: usize,
    last: bool,
    m: &mut Metrics,
) {
    let cfg = JoinConfig::default();
    let kdj = |k| am_kdj(r, s, k, &cfg, &AmKdjOptions::default()).results;
    let mut cur = AmIdj::new(r, s, &cfg, AmIdjOptions::default());
    let refs = Refs {
        kdj100: kdj(100),
        kdj1k: kdj(1_000),
        cursor: std::iter::from_fn(|| cur.next()).take(TAKE).collect(),
    };
    let requests0 = r.access_stats().requests + s.access_stats().requests;
    let off = Tracer::new(false);
    let warm = clients(addr, conns, warm_up, Duration::ZERO, &refs, &off, 0, None);
    run.tally.absorb(warm.tally);
    let lines = Mutex::new(Lines::default());
    run.measure(|t, parent, dur| {
        let keep = t.enabled().then_some(&lines);
        clients(addr, conns, cycle, dur, &refs, t, parent, keep)
    });
    if run.tracer.enabled() && last {
        let requests = r.access_stats().requests + s.access_stats().requests - requests0;
        let tracer = run.tracer;
        let root = tracer.span("workload", 0, 0);
        let ok = traced_probes(r, s, addr, &refs, requests, &lines, tracer, root.id(), m);
        run.tally.absorb(ok);
    }
}

/// The serve-layer probes and counters of the traced run.
#[allow(clippy::too_many_arguments)]
fn traced_probes(
    r: &RTree<2>,
    s: &RTree<2>,
    addr: SocketAddr,
    refs: &Refs,
    node_requests: u64,
    lines: &Mutex<Lines>,
    tracer: &Tracer,
    root: u64,
    m: &mut Metrics,
) -> Tally {
    let mut tally = Tally::default();
    // The session layer's episode loop on this workload's trees; its
    // counters stand for the served cursors' engine work.
    let episodes = ServeOptions::default().episode_expansions;
    match probes::session_episodes(r, s, TAKE, episodes, tracer, root, m) {
        Ok(ep) => {
            tally.record(same_pairs(
                &refs.cursor,
                &ep.results[..TAKE.min(ep.results.len())],
            ));
            crate::harness::put_counters(m, &[ep.stats], "served cursor (episode-loop replay)");
            probes::spill_push_pop(ep.stats.mainq_insertions, tracer, root, m);
        }
        Err(e) => {
            eprintln!("perfbench: session probe failed: {e}");
            tally.record(false);
        }
    }
    let conn = Conn::connect(addr);
    let ok = conn
        .and_then(|mut c| {
            wire_stats(&mut c, node_requests, m)?;
            transport_rtt(&mut c, tracer, root, m)
        })
        .unwrap_or_else(|e| {
            eprintln!("perfbench: stats/rtt probe failed: {e}");
            false
        });
    tally.record(ok);
    codec_probes(&lines.lock().expect("line log poisoned"), tracer, root, m);
    probes::rtree_fetch(r, s, tracer, root, m);
    tally
}

/// Admission waits and per-query buffer counters from the `stats` op.
fn wire_stats(c: &mut Conn, node_requests: u64, m: &mut Metrics) -> std::io::Result<()> {
    let resp = c.round_trip(&Request::Stats.encode())?;
    let v = wire::ok_response(&resp).map_err(std::io::Error::other)?;
    let rows = v.get("per_query").and_then(Json::arr).unwrap_or(&[]);
    let field = |row: &Json, k: &str| row.get(k).and_then(Json::u64).unwrap_or(0) as f64;
    let waits: Vec<f64> = rows
        .iter()
        .map(|q| field(q, "queue_wait_ns") / 1e6)
        .collect();
    let n = rows.len().max(1) as f64;
    let note = format!("from the stats op, {} queries", rows.len());
    if !waits.is_empty() {
        m.put("admission.wait_p50_ms", median(&waits), "ms", &note);
        let max = sorted(&waits).last().copied().unwrap_or(0.0);
        m.put("admission.wait_max_ms", max, "ms", &note);
    }
    let rejections = v
        .get("admission_rejections")
        .and_then(Json::u64)
        .unwrap_or(0);
    m.put("admission.rejections", rejections as f64, "count", &note);
    let sum = |k: &str| rows.iter().map(|q| field(q, k)).sum::<f64>();
    let (hits, misses) = (sum("buffer_hits"), sum("buffer_misses"));
    m.put(
        "rtree.buffer_misses",
        misses / n,
        "count",
        format!("mean per query; {note}"),
    );
    m.put(
        "rtree.buffer_evictions",
        sum("buffer_evictions") / n,
        "count",
        format!("mean per query; {note}"),
    );
    m.put(
        "rtree.buffer_hit_rate",
        hits / (hits + misses).max(1.0),
        "ratio",
        &note,
    );
    m.put(
        "rtree.node_requests",
        node_requests as f64 / n,
        "count",
        "tree access delta over the served queries, per query",
    );
    Ok(())
}

/// `transport.rtt_us`: round trips of a `kdj` with k = 0 on an idle
/// connection.
fn transport_rtt(
    c: &mut Conn,
    tracer: &Tracer,
    root: u64,
    m: &mut Metrics,
) -> std::io::Result<bool> {
    let set = tracer.span("probe_set", root, 0);
    let line = Request::Kdj {
        id: "rtt".to_string(),
        k: 0,
        spec: QuerySpec::default(),
    }
    .encode();
    let mut us = Vec::new();
    let mut ok = true;
    for _ in 0..200 {
        let _probe = tracer.span("probe", set.id(), set.op());
        let t = Instant::now();
        let resp = c.round_trip(&line)?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
        ok &= wire::parse_results(&resp).is_ok_and(|r| r.pairs.is_empty() && r.done);
    }
    m.put(
        "transport.rtt_us",
        median(&us),
        "us",
        format!("median of {}", us.len()),
    );
    Ok(ok)
}

/// The codec probes over the run's own request and response lines.
fn codec_probes(lines: &Lines, tracer: &Tracer, root: u64, m: &mut Metrics) {
    const REPS: usize = 20;
    let set = tracer.span("probe_set", root, 0);
    if !lines.requests.is_empty() {
        let probe = tracer.span("probe", set.id(), set.op());
        let t = Instant::now();
        for _ in 0..REPS {
            for l in &lines.requests {
                let _ = std::hint::black_box(Request::decode(l.as_bytes(), 1 << 20));
            }
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / (REPS * lines.requests.len()) as f64;
        drop(probe);
        m.put(
            "codec.decode_us",
            us,
            "us",
            format!("per request line, {} lines", lines.requests.len()),
        );
    }
    let mut responses = Vec::new();
    let mut bytes = 0;
    for l in &lines.responses {
        let Ok(v) = wire::ok_response(l) else {
            continue;
        };
        let op = match v.get("op") {
            Some(Json::Str(op)) if op == "kdj" => "kdj",
            Some(Json::Str(op)) if op == "idj_pull" => "idj_pull",
            _ => continue,
        };
        let Ok(res) = wire::parse_results(l) else {
            continue;
        };
        bytes += l.trim_end().len();
        responses.push(Response::Results {
            id: match v.get("id") {
                Some(Json::Str(id)) => id.clone(),
                _ => String::new(),
            },
            op,
            results: res.pairs,
            done: res.done,
            delivered_total: res.delivered_total,
            queue_wait_ns: res.queue_wait_ns,
        });
    }
    let pairs: usize = responses
        .iter()
        .map(|r| match r {
            Response::Results { results, .. } => results.len(),
            _ => 0,
        })
        .sum();
    if pairs == 0 {
        return;
    }
    let probe = tracer.span("probe", set.id(), set.op());
    let t = Instant::now();
    for _ in 0..REPS {
        for r in &responses {
            std::hint::black_box(r.encode());
        }
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / (REPS * pairs) as f64;
    drop(probe);
    let note = format!("{} result lines, {pairs} pairs", responses.len());
    m.put("codec.encode_us_per_pair", us, "us", &note);
    m.put(
        "codec.response_bytes_per_pair",
        bytes as f64 / pairs as f64,
        "bytes",
        &note,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_streams_must_match_pair_for_pair() {
        let p = |r, s, dist| ResultPair { r, s, dist };
        let want = [p(1, 2, 0.25), p(3, 4, 0.5)];
        assert!(same_pairs(&want, &want));
        // A different partner at the same distance is wrong here: the
        // serve data has no ties, so ids must match too.
        assert!(!same_pairs(&want, &[p(1, 2, 0.25), p(3, 5, 0.5)]));
        assert!(!same_pairs(
            &want,
            &[p(1, 2, 0.25), p(3, 4, f64::from_bits(0.5f64.to_bits() + 1))]
        ));
        assert!(!same_pairs(&want, &want[..1]));
    }
}
