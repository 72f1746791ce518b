//! Serve-mode cursor sessions: live incremental joins behind ids.
//!
//! An open IDJ cursor holds, between pulls, a live [`StageDriver`] (the
//! engine behind [`AmIdj`](crate::AmIdj)) plus the pairs it delivered,
//! so batched pulls do exactly the work of one uninterrupted stream. A
//! snapshot — the driver's suspended queues plus the delivered pairs —
//! is built only for `idj_checkpoint` and the shutdown drain. A cursor
//! that cannot stream live (resumed from bytes, just checkpointed, or
//! opened with `threads > 1`) materialises its `take` pairs with one
//! unpaused [`idj_resumable`] call on its next pull.

use amdj_rtree::{thread_buffer_stats, RTree};

use crate::engine::{idj_resumable, Checkpointed, EngineSnapshot, SnapshotKind, StageDriver};
use crate::{AmIdjOptions, JoinConfig, JoinStats, ResultPair};

use super::codec::QuerySpec;
use super::ServeError;

// Cursors move between handler threads with every table checkout.
fn _cursor_is_send<const D: usize>(cursor: Cursor<'_, D>) -> impl Send + '_ {
    cursor
}

/// A cursor's engine between pulls.
#[derive(Debug)]
enum Engine<'t, const D: usize> {
    /// Opened, no engine work yet.
    Fresh,
    /// Streaming: the cursor's results are exactly the pairs delivered.
    Live(Box<StageDriver<'t, D>>),
    /// A cut to materialise from on the next pull.
    Snapshot(Box<EngineSnapshot<D>>),
    /// The cursor's results are its whole stream (at most `take` pairs).
    Done,
}

/// One open incremental-join cursor: target size, per-query engine
/// knobs, delivery position, engine, and per-query counters.
#[derive(Debug)]
pub struct Cursor<'t, const D: usize> {
    take: usize,
    spec: QuerySpec,
    delivered: u64,
    /// The stream known so far: the delivered pairs while live, the
    /// whole stream once done.
    results: Vec<ResultPair>,
    engine: Engine<'t, D>,
    /// Finished engine runs' counters plus every pull's buffer traffic.
    stats: JoinStats,
    /// Total admission queue wait across this cursor's pulls, ns.
    pub queue_wait_ns: u64,
}

/// Adds the calling thread's buffer traffic since `from` to `stats`.
fn add_buffer_delta(stats: &mut JoinStats, from: (u64, u64, u64)) {
    let (h, m, e) = thread_buffer_stats();
    stats.buffer_hits += h - from.0;
    stats.buffer_misses += m - from.1;
    stats.buffer_evictions += e - from.2;
}

/// Folds one engine run's counters into a cursor's totals: work sums,
/// `stages` keeps the maximum.
fn absorb_run(total: &mut JoinStats, run: JoinStats) {
    let stages = total.stages.max(run.stages);
    total.absorb_worker(&run);
    total.node_requests += run.node_requests;
    total.node_disk_reads += run.node_disk_reads;
    total.cpu_seconds += run.cpu_seconds;
    total.io_seconds += run.io_seconds;
    total.stages = stages;
}

impl<'t, const D: usize> Cursor<'t, D> {
    /// A fresh cursor for `take` pairs under the given knobs.
    pub fn open(take: usize, spec: QuerySpec) -> Self {
        Cursor {
            take,
            spec,
            delivered: 0,
            results: Vec::new(),
            engine: Engine::Fresh,
            stats: JoinStats::default(),
            queue_wait_ns: 0,
        }
    }

    /// Re-creates a cursor from a checkpoint snapshot, resuming
    /// delivery after `delivered` already-received pairs. The
    /// snapshot's kind must be an incremental join (its embedded `take`
    /// becomes the cursor's); corruption surfaces as a clean error.
    pub fn resume(
        snap: EngineSnapshot<D>,
        delivered: u64,
        spec: QuerySpec,
    ) -> Result<Self, ServeError> {
        let SnapshotKind::Idj { take } = snap.kind() else {
            return Err(ServeError::Snapshot(crate::SnapshotError::Invalid(
                "k-distance-join snapshot passed to an incremental cursor",
            )));
        };
        // A mid-join snapshot may retain more than `take` results, but
        // a client received at most `take` pairs, all in the snapshot:
        // a `delivered` beyond either bound is a lie.
        if delivered > take {
            return Err(ServeError::Snapshot(crate::SnapshotError::Invalid(
                "delivered position beyond the cursor's result budget",
            )));
        }
        if delivered > snap.results_len() as u64 {
            return Err(ServeError::Snapshot(crate::SnapshotError::Invalid(
                "delivered position beyond the snapshot's results",
            )));
        }
        Ok(Cursor {
            delivered,
            engine: Engine::Snapshot(Box::new(snap)),
            ..Cursor::open(take as usize, spec)
        })
    }

    /// Total pairs delivered to the client so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The engine knobs the cursor runs with.
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// The cursor's counters. Buffer counters sum each pull's deltas on
    /// whichever handler thread served it.
    pub fn stats(&self) -> JoinStats {
        let mut st = self.stats;
        if let Engine::Live(driver) = &self.engine {
            absorb_run(&mut st, driver.work_stats());
        }
        st.results = self.delivered;
        st
    }

    /// Advances the engine until the cursor knows `want` pairs or its
    /// whole stream. A live driver's buffer traffic is measured here, on
    /// the pulling thread; a materialising [`idj_resumable`] run reports
    /// its own exact attribution (coordinating thread plus workers).
    fn advance(
        &mut self,
        r: &'t RTree<D>,
        s: &'t RTree<D>,
        cfg: &JoinConfig,
        opts: &AmIdjOptions,
        want: usize,
    ) -> Result<(), ServeError> {
        let live = match std::mem::replace(&mut self.engine, Engine::Done) {
            Engine::Done => return Ok(()),
            Engine::Fresh if self.spec.threads <= 1 => None,
            Engine::Fresh => return self.materialise(r, s, cfg, opts, None),
            Engine::Snapshot(snap) => return self.materialise(r, s, cfg, opts, Some(*snap)),
            Engine::Live(driver) => Some(driver),
        };
        let buf0 = thread_buffer_stats();
        let mut driver =
            live.unwrap_or_else(|| Box::new(StageDriver::new(r, s, cfg, opts.clone())));
        let mut exhausted = false;
        while self.results.len() < want && !exhausted {
            match driver.next() {
                Some(pair) => self.results.push(pair),
                None => exhausted = true,
            }
        }
        if exhausted || self.results.len() >= self.take {
            // Nothing more to deliver: free the queues now.
            absorb_run(&mut self.stats, driver.work_stats());
        } else {
            self.engine = Engine::Live(driver);
        }
        add_buffer_delta(&mut self.stats, buf0);
        Ok(())
    }

    /// Materialises the cursor's `take` pairs with one unpaused
    /// [`idj_resumable`] run from `resume` (or from the roots).
    fn materialise(
        &mut self,
        r: &'t RTree<D>,
        s: &'t RTree<D>,
        cfg: &JoinConfig,
        opts: &AmIdjOptions,
        resume: Option<EngineSnapshot<D>>,
    ) -> Result<(), ServeError> {
        let threads = (self.spec.threads as usize).max(1);
        let Checkpointed::Done(out) =
            idj_resumable(r, s, self.take, cfg, opts, threads, None, resume, None)?
        else {
            unreachable!("no pause control was attached")
        };
        absorb_run(&mut self.stats, out.stats);
        self.results = out.results;
        Ok(())
    }

    /// Pulls the next `n` pairs. Returns the slice and whether the
    /// cursor is exhausted.
    pub fn pull(
        &mut self,
        r: &'t RTree<D>,
        s: &'t RTree<D>,
        cfg: &JoinConfig,
        opts: &AmIdjOptions,
        n: usize,
    ) -> Result<(Vec<ResultPair>, bool), ServeError> {
        let want = (self.delivered as usize).saturating_add(n).min(self.take);
        self.advance(r, s, cfg, opts, want)?;
        let from = self.delivered as usize;
        let end = want.min(self.results.len());
        // A position the stream cannot replay (an inconsistent resume)
        // is refused — never a rewind, never a slice panic that would
        // tear down the whole `serve` thread scope.
        if from > end {
            return Err(ServeError::Snapshot(crate::SnapshotError::Invalid(
                "cursor delivery position is ahead of the result stream",
            )));
        }
        let slice = self.results[from..end].to_vec();
        self.delivered = end as u64;
        let exhausted = matches!(self.engine, Engine::Done) && end >= self.results.len();
        Ok((slice, exhausted))
    }

    /// Serializes the cursor to snapshot bytes plus its delivery
    /// position. A live cursor's driver moves into the snapshot; a fresh
    /// cursor snapshots a new driver's root cut and stays fresh; a
    /// finished one yields a resume-to-done snapshot.
    pub fn checkpoint(
        &mut self,
        r: &'t RTree<D>,
        s: &'t RTree<D>,
        cfg: &JoinConfig,
        opts: &AmIdjOptions,
    ) -> Result<(Vec<u8>, u64), ServeError> {
        let take = self.take as u64;
        let snap = match std::mem::replace(&mut self.engine, Engine::Done) {
            Engine::Fresh => {
                self.engine = Engine::Fresh;
                let buf0 = thread_buffer_stats();
                let driver = StageDriver::new(r, s, cfg, opts.clone());
                add_buffer_delta(&mut self.stats, buf0);
                let root_cut = driver.into_snapshot(take, Vec::new());
                return Ok((root_cut.encode(), self.delivered));
            }
            Engine::Done => {
                let snap = EngineSnapshot::<D>::idj_finished(take, self.results.clone());
                return Ok((snap.encode(), self.delivered));
            }
            Engine::Snapshot(snap) => snap,
            Engine::Live(driver) => {
                absorb_run(&mut self.stats, driver.work_stats());
                // The delivered pairs move into the snapshot and come
                // back with the materialised stream.
                let delivered = std::mem::take(&mut self.results);
                Box::new(driver.into_snapshot(take, delivered))
            }
        };
        let bytes = snap.encode();
        self.engine = Engine::Snapshot(snap);
        Ok((bytes, self.delivered))
    }
}

/// The serve-mode session table: cursor id → cursor, with checkout
/// semantics so two concurrent requests against the same cursor fail
/// fast (`CursorBusy`) instead of racing or deadlocking.
#[derive(Debug, Default)]
pub struct CursorTable<'t, const D: usize> {
    /// `None` marks a cursor checked out by an executing request.
    map: std::sync::Mutex<std::collections::HashMap<String, Option<Cursor<'t, D>>>>,
}

impl<'t, const D: usize> CursorTable<'t, D> {
    /// Registers a new cursor under `id`.
    pub fn insert(&self, id: &str, cursor: Cursor<'t, D>) -> Result<(), ServeError> {
        let mut map = self.map.lock().expect("cursor table poisoned");
        if map.contains_key(id) {
            return Err(ServeError::CursorExists(id.to_string()));
        }
        map.insert(id.to_string(), Some(cursor));
        Ok(())
    }

    /// Checks a cursor out for exclusive use by one request.
    pub fn checkout(&self, id: &str) -> Result<Cursor<'t, D>, ServeError> {
        let mut map = self.map.lock().expect("cursor table poisoned");
        match map.get_mut(id) {
            None => Err(ServeError::UnknownCursor(id.to_string())),
            Some(slot) => slot
                .take()
                .ok_or_else(|| ServeError::CursorBusy(id.to_string())),
        }
    }

    /// Returns a checked-out cursor to the table.
    pub fn checkin(&self, id: &str, cursor: Cursor<'t, D>) {
        let mut map = self.map.lock().expect("cursor table poisoned");
        if let Some(slot) = map.get_mut(id) {
            *slot = Some(cursor);
        }
    }

    /// Removes a cursor (it must not be checked out).
    pub fn remove(&self, id: &str) -> Result<Cursor<'t, D>, ServeError> {
        let mut map = self.map.lock().expect("cursor table poisoned");
        match map.get(id) {
            None => return Err(ServeError::UnknownCursor(id.to_string())),
            Some(None) => return Err(ServeError::CursorBusy(id.to_string())),
            Some(Some(_)) => {}
        }
        Ok(map
            .remove(id)
            .flatten()
            .expect("checked present and idle above"))
    }

    /// Puts a drained cursor back, even under an id that was removed in
    /// between — the undo path of a failed shutdown checkpoint, which
    /// must leave every cursor exactly as open as it found it.
    pub fn restore(&self, id: String, cursor: Cursor<'t, D>) {
        let mut map = self.map.lock().expect("cursor table poisoned");
        map.insert(id, Some(cursor));
    }

    /// Drains every idle cursor (shutdown: in-flight requests have
    /// already finished, so after the drain the table is empty).
    pub fn drain(&self) -> Vec<(String, Cursor<'t, D>)> {
        let mut map = self.map.lock().expect("cursor table poisoned");
        map.drain()
            .filter_map(|(id, slot)| slot.map(|c| (id, c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AmIdj;
    use amdj_datagen::{clustered_points, uniform_points, unit_universe};
    use amdj_rtree::RTreeParams;

    /// Pulling a served cursor in batches does exactly the work of one
    /// uninterrupted `AmIdj` stream: same pairs, and — pinning that no
    /// re-seeding creeps back in between pulls — the same main-queue
    /// insertions after every pull and once `take` pairs are out.
    #[test]
    fn served_cursor_does_the_work_of_one_amidj_stream() {
        let (u, p) = (unit_universe(), RTreeParams::for_tests());
        let r = RTree::bulk_load(p.clone(), uniform_points(400, u, 5));
        let s = RTree::bulk_load(p, clustered_points(400, 8, 0.02, u, 6));
        let cfg = JoinConfig::default();
        let opts = AmIdjOptions::default();
        let take = 150;
        let mut reference = AmIdj::new(&r, &s, &cfg, opts.clone());
        let mut cursor = Cursor::open(take, QuerySpec::default());
        let mut delivered = 0;
        loop {
            let (batch, done) = cursor.pull(&r, &s, &cfg, &opts, 7).expect("pull");
            for got in &batch {
                assert_eq!(Some(*got), reference.next(), "pair {delivered}");
                delivered += 1;
            }
            assert_eq!(
                cursor.stats().mainq_insertions,
                reference.stats().mainq_insertions,
                "main-queue insertions after {delivered} pairs"
            );
            if done {
                break;
            }
        }
        assert_eq!(delivered, take);
        assert!(matches!(cursor.engine, Engine::Done), "retired at take");
        assert_eq!(cursor.stats().results, take as u64);
    }
}
