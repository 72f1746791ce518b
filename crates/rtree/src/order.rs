//! Per-page sweep orders: each node's entries sorted once per
//! (axis, direction) and reused by every later expansion of that page.
//!
//! The join engine's bidirectional expansion (paper §3) sweeps a node's
//! children in increasing [`sweep_key`] order along the axis and
//! direction it picks for the pair. A node has only 2·D such orders, but
//! it is expanded against many partners, so sorting per expansion redoes
//! the same sort thousands of times per join. [`SweepOrders`] keeps the
//! sorted index permutation instead: built lazily on first use (never at
//! load), read without a lock afterwards, and dropped only when the page's
//! content changes.

use std::cell::Cell;
use std::sync::OnceLock;

use amdj_geom::{sweep_key, SweepDirection};
use amdj_storage::PageId;

use crate::Node;

thread_local! {
    static TL_ORDER_LOOKUPS: Cell<u64> = const { Cell::new(0) };
    static TL_ORDER_BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// Cumulative sweep-order `(lookups, builds)` made by the *calling
/// thread*, across every tree. A lookup is one node fill by the join
/// engine; a build is a lookup that found no cached order and sorted
/// the node. `1 - builds / lookups` is the share of fills that reused an
/// order. Monotone and cheap, like
/// [`thread_buffer_stats`](crate::thread_buffer_stats): difference two
/// reads to attribute a span of work.
pub fn thread_sweep_order_stats() -> (u64, u64) {
    (TL_ORDER_LOOKUPS.get(), TL_ORDER_BUILDS.get())
}

/// One entry as the order sort sees it. It has the size of the engine's
/// sweep entry (an MBR's 2·D floats, then the child id and the key), and
/// the standard library's unstable sort picks its strategy by element
/// size, so sorting these slots makes exactly the moves a sort of whole
/// sweep entries makes: entries tied on `(key, child)` land where that
/// sort puts them. (Sorting bare `u16` indices takes another path and
/// places such ties differently.) The entry's index rides in the first
/// word of the MBR-sized field.
#[derive(Clone, Copy)]
struct Slot<const D: usize> {
    index: [[u64; D]; 2],
    child: u64,
    key: f64,
}

impl<const D: usize> Node<D> {
    /// The order in which a plane sweep along `axis` in direction `dir`
    /// visits this node's entries: `order[i]` is the index into
    /// [`entries`](Node::entries) of the `i`-th entry swept. Entries are
    /// sorted by [`sweep_key`] under [`f64::total_cmp`], ties broken by
    /// child id, with `sort_unstable_by` (no merge buffer, no panic on
    /// NaN).
    ///
    /// This sorts on every call; the join engine reads the cached copy
    /// through [`RTree::sweep_order`](crate::RTree::sweep_order).
    pub fn sweep_order(&self, axis: usize, dir: SweepDirection) -> Box<[u16]> {
        assert!(
            self.entries.len() <= usize::from(u16::MAX) + 1,
            "a node of {} entries overflows a u16 sweep order",
            self.entries.len()
        );
        let mut slots: Vec<Slot<D>> = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let mut index = [[0; D]; 2];
                index[0][0] = i as u64;
                Slot {
                    index,
                    child: e.child,
                    key: sweep_key(&e.mbr, axis, dir),
                }
            })
            .collect();
        slots.sort_unstable_by(|a, b| a.key.total_cmp(&b.key).then_with(|| a.child.cmp(&b.child)));
        slots.iter().map(|s| s.index[0][0] as u16).collect()
    }
}

/// A tree's table of cached sweep orders: 2·D lazily filled slots per
/// page id, indexed `page · 2D + axis · 2 + direction`.
///
/// Reads go through [`OnceLock::get_or_init`], so the hit path is one
/// atomic load and no lock; two threads racing to build the same order
/// build it once. Every change to a page's content takes `&mut self`
/// ([`invalidate`](SweepOrders::invalidate)), which is what lets the
/// shared read path stay lock-free.
#[derive(Debug, Default)]
pub(crate) struct SweepOrders<const D: usize> {
    slots: Vec<OnceLock<Box<[u16]>>>,
}

impl<const D: usize> SweepOrders<D> {
    fn base(pid: PageId) -> usize {
        pid.0 as usize * 2 * D
    }

    /// Makes room for `pid`'s slots (new pages start empty).
    pub(crate) fn cover(&mut self, pid: PageId) {
        let end = Self::base(pid) + 2 * D;
        if self.slots.len() < end {
            self.slots.resize_with(end, OnceLock::new);
        }
    }

    /// Drops `pid`'s orders: its content changed or it was freed.
    pub(crate) fn invalidate(&mut self, pid: PageId) {
        let base = Self::base(pid);
        if let Some(slots) = self.slots.get_mut(base..base + 2 * D) {
            slots.iter_mut().for_each(|slot| drop(slot.take()));
        }
    }

    /// The cached order of `node` (the current content of `pid`) along
    /// `axis` in direction `dir`, building it on first use.
    pub(crate) fn get(
        &self,
        pid: PageId,
        node: &Node<D>,
        axis: usize,
        dir: SweepDirection,
    ) -> &[u16] {
        assert!(axis < D, "sweep axis {axis} out of range for D = {D}");
        TL_ORDER_LOOKUPS.set(TL_ORDER_LOOKUPS.get() + 1);
        let slot = &self.slots[Self::base(pid) + axis * 2 + dir as usize];
        let order = slot.get_or_init(|| {
            TL_ORDER_BUILDS.set(TL_ORDER_BUILDS.get() + 1);
            node.sweep_order(axis, dir)
        });
        assert_eq!(
            order.len(),
            node.entries.len(),
            "sweep order of page {pid:?} is stale"
        );
        order
    }

    /// Bytes held by built orders (the table's slots excluded).
    pub(crate) fn order_bytes(&self) -> usize {
        self.slots
            .iter()
            .filter_map(OnceLock::get)
            .map(|o| o.len() * std::mem::size_of::<u16>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Entry;
    use amdj_geom::Rect;

    fn node(xs: &[(f64, u64)]) -> Node<2> {
        Node {
            level: 0,
            entries: xs
                .iter()
                .map(|&(x, child)| Entry {
                    mbr: Rect::new([x, 0.0], [x + 1.0, 1.0]),
                    child,
                })
                .collect(),
        }
    }

    #[test]
    fn order_sorts_by_key_then_child() {
        let n = node(&[(3.0, 1), (1.0, 9), (1.0, 2), (2.0, 0)]);
        assert_eq!(&*n.sweep_order(0, SweepDirection::Forward), &[2, 1, 3, 0]);
        // Backward keys are -hi: 3.0 first, then 2.0, then the two 1.0s by id.
        assert_eq!(&*n.sweep_order(0, SweepDirection::Backward), &[0, 3, 2, 1]);
    }

    #[test]
    fn table_builds_once_and_invalidates_per_page() {
        let n = node(&[(2.0, 0), (1.0, 1)]);
        let mut t: SweepOrders<2> = SweepOrders::default();
        t.cover(PageId(3));
        let (l0, b0) = thread_sweep_order_stats();
        assert_eq!(t.get(PageId(3), &n, 0, SweepDirection::Forward), &[1, 0]);
        assert_eq!(t.get(PageId(3), &n, 0, SweepDirection::Forward), &[1, 0]);
        assert_eq!(thread_sweep_order_stats(), (l0 + 2, b0 + 1));
        assert_eq!(t.order_bytes(), 4);
        t.invalidate(PageId(3));
        t.invalidate(PageId(99)); // beyond the table: nothing to drop
        assert_eq!(t.order_bytes(), 0);
        let _ = t.get(PageId(3), &n, 0, SweepDirection::Forward);
        assert_eq!(thread_sweep_order_stats(), (l0 + 3, b0 + 2));
    }
}
