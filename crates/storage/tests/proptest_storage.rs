//! Property-based validation of the storage substrate: the spill queue
//! must behave exactly like a reference binary heap under arbitrary
//! push/pop interleavings, budgets, and boundary sets, popping equal keys
//! in (rank, insertion) order; the external sorter must sort; the LRU
//! must respect its budget.

use amdj_storage::codec::{put_f64, put_u32, put_u64, CodecError, Reader};
use amdj_storage::{ByteLru, CostModel, ExternalSorter, SpillItem, SpillQueue, SpillQueueConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq)]
struct Item {
    key: f64,
    id: u64,
}

impl SpillItem for Item {
    fn key(&self) -> f64 {
        self.key
    }
    fn encoded_len(&self) -> usize {
        16
    }
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.key);
        put_u64(out, self.id);
    }
    fn try_decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Item {
            key: r.try_f64("item key")?,
            id: r.try_u64("item id")?,
        })
    }
}

#[derive(Clone, Debug)]
enum Op {
    Push(u16),
    Pop,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![3 => (0u16..500).prop_map(Op::Push), 2 => Just(Op::Pop)],
        1..400,
    )
}

/// Duplicate-heavy interleavings: a handful of distinct keys forces the
/// equal-key degenerate split over and over.
fn dup_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![3 => (0u16..4).prop_map(Op::Push), 2 => Just(Op::Pop)],
        1..400,
    )
}

/// Interleavings for the tie-heavy split property: pushes draw from a
/// few distinct keys, and a reinsert puts the last popped item back (a
/// parked head).
#[derive(Clone, Debug)]
enum TieOp {
    Push(u8),
    Pop,
    Reinsert,
}

fn tie_ops() -> impl Strategy<Value = Vec<TieOp>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0u8..4).prop_map(TieOp::Push),
            3 => Just(TieOp::Pop),
            1 => Just(TieOp::Reinsert),
        ],
        1..600,
    )
}

/// Pops one item, checking it against the reference multiset `live`
/// (id → key) and that keys never fall below the `last` popped one.
fn pop_checked(
    q: &mut SpillQueue<Item>,
    live: &mut BTreeMap<u64, f64>,
    last: &mut f64,
) -> Result<Option<Item>, TestCaseError> {
    let Some(it) = q.pop() else {
        prop_assert!(live.is_empty(), "queue ran dry with {} live", live.len());
        return Ok(None);
    };
    prop_assert!(it.key >= *last, "pop {} after {}", it.key, last);
    *last = it.key;
    prop_assert_eq!(live.remove(&it.id), Some(it.key));
    Ok(Some(it))
}

/// Runs `ops` with keys drawn from `distinct` values, each push clamped up
/// to the last popped key so pops must ascend. Checks every pop against a
/// reference multiset (id → key), the final drain, and the amortised split
/// bound `2·(pushes + reinserts)/capacity + swap-ins + 1`.
fn run_tie_heavy(
    ops: Vec<TieOp>,
    distinct: u8,
    mem: usize,
    page: usize,
) -> Result<(), TestCaseError> {
    let cost = CostModel {
        page_size: page,
        ..CostModel::free()
    };
    let mut q = SpillQueue::new(SpillQueueConfig {
        mem_budget: mem,
        boundaries: Vec::new(),
        cost,
    });
    let mut live = BTreeMap::new();
    let (mut pushes, mut last, mut parked) = (0u64, 0.0f64, None);
    for (id, op) in ops.into_iter().enumerate() {
        match op {
            TieOp::Push(k) => {
                let key = f64::from(k % distinct).max(last);
                q.push(Item { key, id: id as u64 });
                live.insert(id as u64, key);
                pushes += 1;
            }
            TieOp::Pop => parked = pop_checked(&mut q, &mut live, &mut last)?,
            TieOp::Reinsert => {
                if let Some(it) = parked.take() {
                    live.insert(it.id, it.key);
                    q.reinsert(it);
                    pushes += 1;
                }
            }
        }
        assert_budget(&q, mem)?;
    }
    let stats = q.stats();
    let bound = 2 * pushes / (mem / item_cost()) as u64 + stats.swap_ins + 1;
    prop_assert!(
        stats.splits <= bound,
        "{} splits exceed the amortised bound {}",
        stats.splits,
        bound
    );
    while pop_checked(&mut q, &mut live, &mut last)?.is_some() {}
    prop_assert!(live.is_empty());
    Ok(())
}

/// An item with an explicit tie-break rank.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Ranked {
    key: f64,
    rank: u32,
    id: u64,
}

impl SpillItem for Ranked {
    fn key(&self) -> f64 {
        self.key
    }
    fn rank(&self) -> u32 {
        self.rank
    }
    fn encoded_len(&self) -> usize {
        20
    }
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.key);
        put_u32(out, self.rank);
        put_u64(out, self.id);
    }
    fn try_decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Ranked {
            key: r.try_f64("item key")?,
            rank: r.try_u32("item rank")?,
            id: r.try_u64("item id")?,
        })
    }
}

/// Interleavings for the ranked-tie property: a push carries a key index
/// and a rank, a reinsert puts the last popped item back.
#[derive(Clone, Debug)]
enum RankOp {
    Push(u8, u32),
    Pop,
    Reinsert,
}

fn rank_ops() -> impl Strategy<Value = Vec<RankOp>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0u8..4, 0u32..4).prop_map(|(k, r)| RankOp::Push(k, r)),
            3 => Just(RankOp::Pop),
            1 => Just(RankOp::Reinsert),
        ],
        1..500,
    )
}

/// Runs `ops` with keys from `distinct` values against two references: a
/// map ordered by (key, rank, insertion) and an unbounded queue fed the
/// same operations. Every pop must match both, and a save/restore round
/// trip of what is left must pop in the same order.
fn run_ranked(ops: Vec<RankOp>, distinct: u8, items: usize) -> Result<(), TestCaseError> {
    let cost = CostModel {
        page_size: 128,
        ..CostModel::free()
    };
    let config = SpillQueueConfig {
        mem_budget: items * SpillQueue::<Ranked>::per_item_cost(20),
        boundaries: vec![0.5, 1.5],
        cost,
    };
    let mut q = SpillQueue::new(config.clone());
    let mut unbounded = SpillQueue::new(SpillQueueConfig::unbounded());
    let mut live = BTreeMap::new();
    let (mut at, mut parked) = (0u64, None);
    for (id, op) in ops.into_iter().enumerate() {
        match op {
            RankOp::Push(k, rank) => {
                let it = Ranked {
                    key: f64::from(k % distinct),
                    rank,
                    id: id as u64,
                };
                q.push(it);
                unbounded.push(it);
                live.insert((k % distinct, rank, at), it);
                at += 1;
            }
            RankOp::Pop => {
                let want = live.pop_first().map(|(_, it)| it);
                prop_assert_eq!(unbounded.pop(), want);
                let got = q.pop();
                prop_assert_eq!(got, want);
                parked = got;
            }
            RankOp::Reinsert => {
                if let Some(it) = parked.take() {
                    q.reinsert(it);
                    unbounded.reinsert(it);
                    live.insert((it.key as u8, it.rank, at), it);
                    at += 1;
                }
            }
        }
    }
    let mut image = Vec::new();
    q.save_contents(&mut image);
    let mut restored: SpillQueue<Ranked> = SpillQueue::new(config);
    prop_assert_eq!(
        restored.restore_contents(&mut Reader::new(&image)),
        Ok(live.len() as u64)
    );
    let want: Vec<Ranked> = live.into_values().collect();
    prop_assert_eq!(restored.drain_sorted(), want.clone());
    prop_assert_eq!(unbounded.drain_sorted(), want);
    Ok(())
}

/// One `Item` costs this much heap memory inside the queue.
fn item_cost() -> usize {
    SpillQueue::<Item>::per_item_cost(16)
}

/// The queue may exceed its budget only transiently, by the one item a
/// push adds before the split runs (and a split needs two residents).
fn assert_budget(q: &SpillQueue<Item>, mem: usize) -> Result<(), TestCaseError> {
    prop_assert!(
        q.mem_bytes() <= mem + item_cost(),
        "heap holds {} bytes against a budget of {}",
        q.mem_bytes(),
        mem
    );
    Ok(())
}

fn run_against_reference(
    ops: Vec<Op>,
    mem: usize,
    page: usize,
    boundaries: Vec<f64>,
) -> Result<(), TestCaseError> {
    let cost = CostModel {
        page_size: page,
        ..CostModel::paper_1999_disk()
    };
    let mut q = SpillQueue::new(SpillQueueConfig {
        mem_budget: mem,
        boundaries,
        cost,
    });
    let mut reference: Vec<u16> = Vec::new();
    let mut id = 0u64;
    for op in ops {
        match op {
            Op::Push(k) => {
                q.push(Item { key: k as f64, id });
                id += 1;
                reference.push(k);
            }
            Op::Pop => {
                let got = q.pop().map(|i| i.key);
                let want = if reference.is_empty() {
                    None
                } else {
                    let min = *reference.iter().min().expect("non-empty");
                    let pos = reference.iter().position(|&v| v == min).expect("present");
                    reference.swap_remove(pos);
                    Some(min as f64)
                };
                prop_assert_eq!(got, want);
            }
        }
        assert_budget(&q, mem)?;
    }
    prop_assert_eq!(q.len() as usize, reference.len());
    // Drain the remainder: must come out sorted and complete, never
    // blowing the budget along the way.
    let mut rest: Vec<f64> = Vec::new();
    while let Some(i) = q.pop() {
        rest.push(i.key);
        assert_budget(&q, mem)?;
    }
    let mut want: Vec<f64> = reference.iter().map(|&v| v as f64).collect();
    want.sort_unstable_by(f64::total_cmp);
    prop_assert!(rest.windows(2).all(|w| w[0] <= w[1]));
    prop_assert_eq!(rest, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn spill_queue_matches_reference_heap(
        ops in ops(),
        mem in 64usize..2048,
        page in 64usize..512,
        nbounds in 0usize..8,
    ) {
        let boundaries: Vec<f64> = (1..=nbounds).map(|i| (i * 60) as f64).collect();
        run_against_reference(ops, mem, page, boundaries)?;
    }

    /// Duplicate-heavy keys under tiny budgets: every split is (or soon
    /// becomes) the equal-key degenerate case, and the budget fits only a
    /// couple of items, so pops constantly swap segments back in.
    #[test]
    fn spill_queue_survives_duplicate_keys_and_tiny_budgets(
        ops in dup_ops(),
        mem in 40usize..200,
        page in 64usize..256,
        with_bounds in any::<bool>(),
    ) {
        // Boundaries between the four live keys, so configured-boundary
        // splits and median splits both get exercised.
        let boundaries = if with_bounds { vec![0.5, 1.5, 2.5, 3.5] } else { Vec::new() };
        run_against_reference(ops, mem, page, boundaries)?;
    }

    /// Keys from two to four distinct values at budgets of one to nine
    /// items: most splits find the minimum key filling over half the heap,
    /// and each must still leave at most half of it resident.
    #[test]
    fn spill_queue_splits_stay_amortised_under_ties(
        ops in tie_ops(),
        distinct in 2u8..5,
        mem in 40usize..400,
        page in 64usize..256,
    ) {
        run_tie_heavy(ops, distinct, mem, page)?;
    }

    /// Ranks 0–3 over two to four keys at budgets of one to nine items:
    /// splits and swap-ins cut through runs of equal (key, rank), and pops
    /// must still come out in (key, rank, insertion) order.
    #[test]
    fn spill_queue_pops_ties_by_rank_then_insertion(
        ops in rank_ops(),
        distinct in 2u8..5,
        items in 1usize..10,
    ) {
        run_ranked(ops, distinct, items)?;
    }

    #[test]
    fn external_sorter_sorts_everything(
        keys in prop::collection::vec(0u32..10_000, 0..600),
        mem in 64usize..1024,
        page in 64usize..512,
    ) {
        let cost = CostModel { page_size: page, ..CostModel::free() };
        let mut sorter = ExternalSorter::new(mem, cost);
        for (i, &k) in keys.iter().enumerate() {
            sorter.push(Item { key: k as f64, id: i as u64 });
        }
        let out: Vec<f64> = sorter.finish().map(|i| i.key).collect();
        let mut want: Vec<f64> = keys.iter().map(|&k| k as f64).collect();
        want.sort_unstable_by(f64::total_cmp);
        prop_assert_eq!(out, want);
    }

    #[test]
    fn lru_never_exceeds_budget(
        inserts in prop::collection::vec((0u16..64, 1usize..64), 1..200),
        budget in 16usize..256,
    ) {
        let mut lru: ByteLru<u16, u16> = ByteLru::new(budget);
        for (k, bytes) in inserts {
            lru.insert(k, k, bytes);
            prop_assert!(lru.used_bytes() <= budget);
            // A freshly inserted, affordable entry must be resident.
            if bytes <= budget {
                prop_assert!(lru.get(&k).is_some());
            }
        }
    }
}
