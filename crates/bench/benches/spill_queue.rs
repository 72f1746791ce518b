//! Hybrid memory/disk queue micro-benchmarks: push/pop throughput under
//! various memory budgets, the value of Equation-3 boundaries, and a
//! tie-heavy stream where most keys share the minimum (the zero-distance
//! pairs of overlapping TIGER MBRs).

use amdj_storage::codec::{put_f64, put_u64, Reader};
use amdj_storage::{SpillItem, SpillQueue, SpillQueueConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

#[derive(Clone, Copy)]
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
    fn try_decode(r: &mut Reader<'_>) -> Result<Self, amdj_storage::codec::CodecError> {
        Ok(Item {
            key: r.try_f64("item key")?,
            id: r.try_u64("item id")?,
        })
    }
}

fn keys(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(2654435761) % 1_000_000) as f64)
        .collect()
}

/// Four keys in five tie at 0; the rest are distinct, spread above it.
fn tie_keys(n: usize) -> Vec<f64> {
    keys(n)
        .into_iter()
        .enumerate()
        .map(|(i, k)| if i % 5 == 0 { 1.0 + k } else { 0.0 })
        .collect()
}

/// Pushes every key into a queue of `budget` bytes, then drains it.
fn push_pop(ks: &[f64], budget: usize) -> u64 {
    let mut q = SpillQueue::new(SpillQueueConfig {
        mem_budget: budget,
        boundaries: vec![],
        cost: amdj_storage::CostModel::free(),
    });
    for (i, &k) in ks.iter().enumerate() {
        q.push(Item {
            key: k,
            id: i as u64,
        });
    }
    let mut n = 0u64;
    while q.pop().is_some() {
        n += 1;
    }
    n
}

fn bench_push_pop(c: &mut Criterion) {
    let mut g = c.benchmark_group("spill_queue/push_pop_100k");
    let ks = keys(100_000);
    g.throughput(Throughput::Elements(ks.len() as u64));
    for &budget in &[16 * 1024usize, 512 * 1024, usize::MAX] {
        let label = if budget == usize::MAX {
            "unbounded".to_string()
        } else {
            format!("{}k", budget / 1024)
        };
        g.bench_with_input(BenchmarkId::from_parameter(label), &budget, |b, &budget| {
            b.iter(|| push_pop(&ks, budget));
        });
    }
    g.finish();
}

fn bench_min_key_ties(c: &mut Criterion) {
    // 80% of the keys tie at the minimum: every split must still leave at
    // most half the heap resident, or the queue splits on every insert.
    let mut g = c.benchmark_group("spill_queue/ties_100k");
    let ks = tie_keys(100_000);
    g.throughput(Throughput::Elements(ks.len() as u64));
    for &budget in &[512 * 1024usize, usize::MAX] {
        let label = if budget == usize::MAX {
            "unbounded".to_string()
        } else {
            format!("{}k", budget / 1024)
        };
        g.bench_with_input(BenchmarkId::from_parameter(label), &budget, |b, &budget| {
            b.iter(|| push_pop(&ks, budget));
        });
    }
    g.finish();
}

fn bench_boundary_guidance(c: &mut Criterion) {
    // Equation-3 boundaries vs median splits for a uniform key stream.
    let ks = keys(100_000);
    let mut g = c.benchmark_group("spill_queue/boundaries");
    for with in [false, true] {
        let name = if with { "eq3" } else { "median" };
        g.bench_function(name, |b| {
            b.iter(|| {
                let boundaries = if with {
                    (1..=64).map(|i| (i * 4000) as f64).collect()
                } else {
                    vec![]
                };
                let mut q = SpillQueue::new(SpillQueueConfig {
                    mem_budget: 64 * 1024,
                    boundaries,
                    cost: amdj_storage::CostModel::free(),
                });
                for (i, &k) in ks.iter().enumerate() {
                    q.push(Item {
                        key: k,
                        id: i as u64,
                    });
                }
                let mut n = 0u64;
                while q.pop().is_some() {
                    n += 1;
                }
                n
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_push_pop,
    bench_boundary_guidance,
    bench_min_key_ties
);
criterion_main!(benches);
