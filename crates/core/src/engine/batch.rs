//! Batched SoA leaf distance kernel: explicit lanes plus a quantized
//! integer prefilter.
//!
//! When both sweep sides are objects (a leaf–leaf expansion) and the
//! sink's **axis** cutoff is frozen for the whole sweep
//! ([`SweepSink::fixed_axis_cutoff`]), the set of partners each anchor
//! examines is fully determined before any distance is computed. The
//! kernel exploits that: instead of calling `Rect::min_dist` per pair, it
//! loads both entry lists into dimension-major scratch buffers once per
//! sweep and computes each anchor's candidate distances in fixed-width
//! unroll-by-[`LANES`] passes over contiguous `f64` slices — the axis
//! window search, the per-dimension squared-gap accumulation, and the
//! root pass each process eight candidates per loop iteration with a
//! scalar tail, so the speed no longer depends on the autovectorizer.
//!
//! # The quantized prefilter
//!
//! In front of the exact `f64` pass sits an optional integer screen
//! (`JoinConfig::quantized_prefilter`). At sweep start both sides'
//! coordinates are quantized onto a 16-bit grid spanning the sweep's
//! bounding box, rounding *outward* (`floor` for lows, `ceil` for highs)
//! so every quantized rectangle contains its exact one. Per candidate the
//! kernel accumulates an integer squared gap per dimension — a cheap
//! `u64` lower bound on the squared distance in grid cells. Candidates
//! whose bound exceeds the live real cutoff (converted to cells, inflated
//! by half a cell of slack that dominates every rounding error — see
//! DESIGN.md §10) provably cannot be emitted, so their `f64` distance and
//! square root are skipped entirely. Rejection is conservative by
//! construction: a candidate at or below the cutoff always survives to
//! the exact pass, so emitted results stay bit-identical.
//!
//! The prefilter never runs when the sweep records rejected distances
//! (`SweepMarks::track_rejects`, the full marks of AM-KDJ's stage one and
//! of every AM-IDJ stage): those marks need the exact distance of every
//! rejected pair, which is precisely what the prefilter avoids computing.
//! So the screen arms only for SJ-SORT and within-joins, whose sweeps
//! freeze the cutoff and record no marks.
//!
//! # Bit-identity
//!
//! The kernel is bit-identical to the scalar path by construction:
//!
//! - the axis window test uses the same expression as
//!   [`Rect::axis_dist`]: `(a.lo − p.hi).max(p.lo − a.hi).max(0.0)`;
//! - per candidate, the squared gaps are accumulated in ascending
//!   dimension order and rooted once, exactly like `Rect::min_dist`
//!   (`f64` addition is deterministic, so the identical operation order
//!   yields identical bits — lanes only batch *independent* candidates,
//!   never reassociate one candidate's sum);
//! - the *real*-cutoff comparison and `emit`/reject decisions replay in
//!   original scan order against the live `sink.real_cutoff()`, so sinks
//!   whose real cutoff tightens as results are emitted (aggressive
//!   sweeps publishing into `qDmax`) see the same cutoff sequence the
//!   scalar scan would have seen;
//! - the prefilter only ever *removes* candidates whose distance is
//!   provably above the cutoff the scalar path would have compared
//!   against (the cutoff is monotone non-increasing during a sweep, so
//!   screening against its value at distance-pass start is conservative
//!   for every later comparison too).
//!
//! Stats accounting also matches the scalar scan: `axis_dist` counts
//! every examined partner *including* the one that breaks the window;
//! `real_dist` counts exactly the distances actually computed, with
//! `exact_dist_skipped` making up the difference to the scalar count.

use crate::JoinStats;

use super::sweep::{offer, SweepEntry, SweepMarks, SweepSide, SweepSink};

/// Fixed unroll width of every lane pass. Eight `f64`s span two AVX2 (or
/// one AVX-512) vector(s) and give the scalar fallback enough independent
/// chains to pipeline; the tail of `n % LANES` candidates runs scalar.
pub(crate) const LANES: usize = 8;

/// Quantized coordinates live in `0..=Q_MAX` grid cells.
const Q_MAX: u32 = u16::MAX as u32;

/// Safety slack, in grid cells, added to the rejection threshold. Each
/// quantized coordinate is within one `floor`/`ceil` plus a few ulps of
/// its exact cell position, so half a cell per comparison side dominates
/// every rounding error in the bound (DESIGN.md §10).
const Q_SLACK_CELLS: f64 = 0.5;

/// Multiplicative fuzz inflating the threshold past the handful of ulps
/// the `f64` threshold computation itself can lose. The real margin is
/// [`Q_SLACK_CELLS`]; this only keeps the argument independent of
/// rounding direction.
const Q_FUZZ: f64 = 1.0 + 1e-9;

/// Reusable dimension-major buffers for the batched kernel. Owned by the
/// `SweepScratch` so a warm join never allocates here: refills within
/// capacity are free.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    left_lo: Vec<f64>,
    left_hi: Vec<f64>,
    right_lo: Vec<f64>,
    right_hi: Vec<f64>,
    left_qlo: Vec<u16>,
    left_qhi: Vec<u16>,
    right_qlo: Vec<u16>,
    right_qhi: Vec<u16>,
    dists: Vec<f64>,
    qlb: Vec<u64>,
    survivors: Vec<u32>,
}

/// Loads `entries` into dimension-major (`buf[d * n + i]`) lo/hi arrays.
/// One `extend` per dimension appends straight into reserved capacity —
/// no `resize` pre-zeroing that the fill loop would immediately
/// overwrite.
fn load<const D: usize>(lo_out: &mut Vec<f64>, hi_out: &mut Vec<f64>, entries: &[SweepEntry<D>]) {
    let n = entries.len();
    lo_out.clear();
    hi_out.clear();
    lo_out.reserve(D * n);
    hi_out.reserve(D * n);
    for d in 0..D {
        lo_out.extend(entries.iter().map(|e| e.mbr.lo()[d]));
        hi_out.extend(entries.iter().map(|e| e.mbr.hi()[d]));
    }
}

/// The conservative quantization grid of one sweep: a shared cell width
/// `cw` and a per-dimension origin at the bounding box's low corner. One
/// *common* cell width (the largest dimension extent over `Q_MAX − 1`
/// cells) keeps every dimension's integer gaps on the same scale, so
/// their squares sum into a single comparable bound.
#[derive(Clone, Copy, Debug)]
struct QuantGrid<const D: usize> {
    origin: [f64; D],
    cw: f64,
}

/// Builds the grid over both sides' bounding box, or `None` when
/// quantization is pointless or unsound: a fully degenerate box (every
/// extent zero — `cw` would be 0 and the bound undefined) or non-finite
/// coordinates.
fn build_grid<const D: usize>(
    left: &[SweepEntry<D>],
    right: &[SweepEntry<D>],
) -> Option<QuantGrid<D>> {
    let mut lo = [f64::INFINITY; D];
    let mut hi = [f64::NEG_INFINITY; D];
    for e in left.iter().chain(right) {
        let (elo, ehi) = (e.mbr.lo(), e.mbr.hi());
        for d in 0..D {
            lo[d] = lo[d].min(elo[d]);
            hi[d] = hi[d].max(ehi[d]);
        }
    }
    let mut extent: f64 = 0.0;
    for d in 0..D {
        let e = hi[d] - lo[d];
        if !e.is_finite() {
            return None;
        }
        extent = extent.max(e);
    }
    // `Q_MAX − 1` (not `Q_MAX`) cells across the largest extent leaves
    // `ceil` of the largest coordinate headroom inside `u16` even after
    // outward rounding.
    let cw = extent / (Q_MAX - 1) as f64;
    if !cw.is_finite() || cw <= 0.0 {
        return None;
    }
    Some(QuantGrid { origin: lo, cw })
}

/// Quantizes already-loaded dimension-major `f64` arrays onto `grid`,
/// rounding outward: lows floor, highs ceil. The `as u16` casts saturate
/// (Rust float→int semantics), which can only move a low down or keep a
/// high at `Q_MAX` — both directions *grow* the quantized rectangle, so
/// saturation preserves conservativeness.
fn quantize<const D: usize>(
    grid: &QuantGrid<D>,
    lo: &[f64],
    hi: &[f64],
    n: usize,
    qlo_out: &mut Vec<u16>,
    qhi_out: &mut Vec<u16>,
) {
    qlo_out.clear();
    qhi_out.clear();
    qlo_out.reserve(D * n);
    qhi_out.reserve(D * n);
    for d in 0..D {
        let o = grid.origin[d];
        qlo_out.extend(
            lo[d * n..(d + 1) * n]
                .iter()
                .map(|&x| ((x - o) / grid.cw).floor() as u16),
        );
        qhi_out.extend(
            hi[d * n..(d + 1) * n]
                .iter()
                .map(|&x| ((x - o) / grid.cw).ceil() as u16),
        );
    }
}

/// The integer bound's rejection threshold for a real cutoff, in squared
/// grid cells: reject a candidate iff `lb² > threshold`. The cutoff is
/// converted to cells and padded with [`Q_SLACK_CELLS`] before squaring,
/// so `lb² > threshold` implies the exact distance strictly exceeds the
/// cutoff (DESIGN.md §10). An infinite cutoff (no results yet) yields an
/// infinite threshold: nothing rejects.
fn reject_threshold(cutoff: f64, cw: f64) -> f64 {
    let cells = (cutoff / cw) * Q_FUZZ + Q_SLACK_CELLS;
    if !cells.is_finite() {
        return f64::INFINITY;
    }
    (cells * cells) * Q_FUZZ
}

/// The batched counterpart of `plane_sweep_into`, valid only when the
/// axis cutoff is frozen at `window` for the whole sweep. Same merge
/// loop, same marks bookkeeping; only the per-anchor scan is batched.
/// `prefilter` arms the quantized screen (it is additionally disabled
/// when marks track rejects — those need exact rejected distances).
#[allow(clippy::too_many_arguments)]
pub(crate) fn batched_plane_sweep_into<const D: usize>(
    left: SweepSide<'_, D>,
    right: SweepSide<'_, D>,
    axis: usize,
    window: f64,
    sink: &mut impl SweepSink<D>,
    stats: &mut JoinStats,
    mut marks: Option<&mut SweepMarks>,
    batch: &mut BatchScratch,
    prefilter: bool,
) {
    load::<D>(&mut batch.left_lo, &mut batch.left_hi, left.entries);
    load::<D>(&mut batch.right_lo, &mut batch.right_hi, right.entries);
    let track_rejects = marks.as_deref().is_some_and(|m| m.track_rejects);
    let grid = if prefilter && !track_rejects {
        build_grid::<D>(left.entries, right.entries)
    } else {
        None
    };
    if let Some(g) = &grid {
        quantize(
            g,
            &batch.left_lo,
            &batch.left_hi,
            left.entries.len(),
            &mut batch.left_qlo,
            &mut batch.left_qhi,
        );
        quantize(
            g,
            &batch.right_lo,
            &batch.right_hi,
            right.entries.len(),
            &mut batch.right_qlo,
            &mut batch.right_qhi,
        );
    }
    let (mut li, mut ri) = (0usize, 0usize);
    while li < left.entries.len() && ri < right.entries.len() {
        if left.entries[li].key <= right.entries[ri].key {
            let anchor_idx = li;
            li += 1;
            let stop = batch_scan(
                anchor_idx,
                left,
                right,
                ri,
                true,
                axis,
                window,
                grid.as_ref(),
                sink,
                stats,
                marks.as_deref_mut(),
                batch,
            );
            if let Some(m) = &mut marks {
                m.left_stops.push(stop as u32);
            }
        } else {
            let anchor_idx = ri;
            ri += 1;
            let stop = batch_scan(
                anchor_idx,
                left,
                right,
                li,
                false,
                axis,
                window,
                grid.as_ref(),
                sink,
                stats,
                marks.as_deref_mut(),
                batch,
            );
            if let Some(m) = &mut marks {
                m.right_stops.push(stop as u32);
            }
        }
    }
}

/// The unroll-by-[`LANES`] axis window search: partners are sorted along
/// the axis, so the first one whose gap exceeds `window` (same expression
/// as `Rect::axis_dist`) ends the scan. Lanes test eight partners per
/// iteration into a bitmask; the first set bit locates the break exactly.
fn axis_stop_lanes(
    lo_ax: &[f64],
    hi_ax: &[f64],
    from: usize,
    w_lo: f64,
    w_hi: f64,
    window: f64,
) -> usize {
    let n = lo_ax.len();
    let mut j = from;
    while j + LANES <= n {
        let mut mask = 0u32;
        for l in 0..LANES {
            let gap = (w_lo - hi_ax[j + l]).max(lo_ax[j + l] - w_hi).max(0.0);
            mask |= u32::from(gap > window) << l;
        }
        if mask != 0 {
            return j + mask.trailing_zeros() as usize;
        }
        j += LANES;
    }
    while j < n {
        let gap = (w_lo - hi_ax[j]).max(lo_ax[j] - w_hi).max(0.0);
        if gap > window {
            return j;
        }
        j += 1;
    }
    n
}

/// One anchor's scan, batched: lane axis pass to find the window, the
/// optional integer prefilter, lane passes per dimension to accumulate
/// squared gaps, a lane root pass, then an ordered emit pass against the
/// live real cutoff. Returns the absolute index where the scan stopped
/// (first unexamined partner).
#[allow(clippy::too_many_arguments)]
fn batch_scan<const D: usize>(
    anchor_idx: usize,
    left: SweepSide<'_, D>,
    right: SweepSide<'_, D>,
    from: usize,
    anchor_is_left: bool,
    axis: usize,
    window: f64,
    grid: Option<&QuantGrid<D>>,
    sink: &mut impl SweepSink<D>,
    stats: &mut JoinStats,
    mut marks: Option<&mut SweepMarks>,
    batch: &mut BatchScratch,
) -> usize {
    let BatchScratch {
        left_lo,
        left_hi,
        right_lo,
        right_hi,
        left_qlo,
        left_qhi,
        right_qlo,
        right_qhi,
        dists,
        qlb,
        survivors,
    } = batch;
    let (anchor, partners, p_lo, p_hi, pq_lo, pq_hi, aq_lo, aq_hi, an) = if anchor_is_left {
        (
            &left.entries[anchor_idx],
            right.entries,
            &*right_lo,
            &*right_hi,
            &*right_qlo,
            &*right_qhi,
            &*left_qlo,
            &*left_qhi,
            left.entries.len(),
        )
    } else {
        (
            &right.entries[anchor_idx],
            left.entries,
            &*left_lo,
            &*left_hi,
            &*left_qlo,
            &*left_qhi,
            &*right_qlo,
            &*right_qhi,
            right.entries.len(),
        )
    };
    let n = partners.len();
    let (alo, ahi) = (anchor.mbr.lo(), anchor.mbr.hi());

    // Axis pass. Counting mirrors the scalar scan: the breaking partner
    // is examined (and counted) too.
    let stop = axis_stop_lanes(
        &p_lo[axis * n..(axis + 1) * n],
        &p_hi[axis * n..(axis + 1) * n],
        from,
        alo[axis],
        ahi[axis],
        window,
    );
    stats.axis_dist += (if stop < n { stop + 1 } else { n } - from) as u64;
    let span = stop - from;
    if span == 0 {
        return stop;
    }

    // Quantized prefilter: integer squared-gap lower bound per candidate,
    // screened against the real cutoff as it stands *now* (it can only
    // tighten later, so rejection stays conservative). With no finite
    // cutoff yet, skip the integer pass entirely.
    let mut screened = false;
    if let Some(g) = grid {
        let threshold = reject_threshold(sink.real_cutoff(), g.cw);
        if threshold < f64::INFINITY {
            qlb.clear();
            qlb.resize(span, 0);
            for d in 0..D {
                let lo_d = &pq_lo[d * n + from..d * n + stop];
                let hi_d = &pq_hi[d * n + from..d * n + stop];
                let a_lo = i32::from(aq_lo[d * an + anchor_idx]);
                let a_hi = i32::from(aq_hi[d * an + anchor_idx]);
                let mut acc_c = qlb.chunks_exact_mut(LANES);
                let mut lo_c = lo_d.chunks_exact(LANES);
                let mut hi_c = hi_d.chunks_exact(LANES);
                for ((acc, lo8), hi8) in (&mut acc_c).zip(&mut lo_c).zip(&mut hi_c) {
                    for l in 0..LANES {
                        let gap = (a_lo - i32::from(hi8[l]))
                            .max(i32::from(lo8[l]) - a_hi)
                            .max(0) as u64;
                        acc[l] += gap * gap;
                    }
                }
                for ((acc, &p_lo_j), &p_hi_j) in acc_c
                    .into_remainder()
                    .iter_mut()
                    .zip(lo_c.remainder())
                    .zip(hi_c.remainder())
                {
                    let gap = (a_lo - i32::from(p_hi_j))
                        .max(i32::from(p_lo_j) - a_hi)
                        .max(0) as u64;
                    *acc += gap * gap;
                }
            }
            survivors.clear();
            for (off, &lb) in qlb.iter().enumerate() {
                // `lb < 4·(Q_MAX·D)² < 2^53`: exactly representable.
                if (lb as f64) <= threshold {
                    survivors.push(off as u32);
                }
            }
            screened = survivors.len() < span;
            if screened {
                let skipped = (span - survivors.len()) as u64;
                stats.quantized_rejects += skipped;
                stats.exact_dist_skipped += skipped;
            }
        }
    }

    if !screened {
        // Dense path (prefilter off, no finite cutoff, or zero rejects):
        // lane passes over the contiguous window. Per candidate the
        // squared axis gaps accumulate in ascending dimension order and
        // root once, exactly like `Rect::min_dist`.
        stats.real_dist += span as u64;
        dists.clear();
        dists.resize(span, 0.0);
        for d in 0..D {
            let lo_d = &p_lo[d * n + from..d * n + stop];
            let hi_d = &p_hi[d * n + from..d * n + stop];
            let (a_lo, a_hi) = (alo[d], ahi[d]);
            let mut acc_c = dists.chunks_exact_mut(LANES);
            let mut lo_c = lo_d.chunks_exact(LANES);
            let mut hi_c = hi_d.chunks_exact(LANES);
            for ((acc, lo8), hi8) in (&mut acc_c).zip(&mut lo_c).zip(&mut hi_c) {
                for l in 0..LANES {
                    let gap = (a_lo - hi8[l]).max(lo8[l] - a_hi).max(0.0);
                    acc[l] += gap * gap;
                }
            }
            for ((acc, &p_lo_j), &p_hi_j) in acc_c
                .into_remainder()
                .iter_mut()
                .zip(lo_c.remainder())
                .zip(hi_c.remainder())
            {
                let gap = (a_lo - p_hi_j).max(p_lo_j - a_hi).max(0.0);
                *acc += gap * gap;
            }
        }
        let mut root_c = dists.chunks_exact_mut(LANES);
        for acc in &mut root_c {
            for v in acc {
                *v = v.sqrt();
            }
        }
        for v in root_c.into_remainder() {
            *v = v.sqrt();
        }

        for (off, j) in (from..stop).enumerate() {
            offer(
                dists[off],
                j,
                anchor,
                anchor_idx,
                anchor_is_left,
                left,
                right,
                sink,
                &mut marks,
            );
        }
    } else {
        // Sparse path: the prefilter punched holes in the window, so the
        // survivors are gathered by offset and their distances computed
        // per candidate — same ascending-dimension operation order as
        // `Rect::min_dist`, hence the same bits.
        stats.real_dist += survivors.len() as u64;
        dists.clear();
        for &off in survivors.iter() {
            let j = from + off as usize;
            let mut acc = 0.0f64;
            for d in 0..D {
                let gap = (alo[d] - p_hi[d * n + j])
                    .max(p_lo[d * n + j] - ahi[d])
                    .max(0.0);
                acc += gap * gap;
            }
            dists.push(acc.sqrt());
        }
        for (si, &off) in survivors.iter().enumerate() {
            offer(
                dists[si],
                from + off as usize,
                anchor,
                anchor_idx,
                anchor_is_left,
                left,
                right,
                sink,
                &mut marks,
            );
        }
    }
    stop
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdj_geom::Rect;
    use proptest::prelude::*;

    fn entry(lo: [f64; 2], hi: [f64; 2]) -> SweepEntry<2> {
        SweepEntry {
            mbr: Rect::new(lo, hi),
            child: 0,
            key: lo[0],
        }
    }

    /// Pins the dimension-major layout `buf[d * n + i]` the lane passes
    /// slice by dimension.
    #[test]
    fn load_is_dimension_major() {
        let entries: Vec<SweepEntry<2>> = (0..5)
            .map(|i| {
                let f = i as f64;
                entry([f, 10.0 + f], [f + 0.5, 10.0 + f + 0.25])
            })
            .collect();
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        load::<2>(&mut lo, &mut hi, &entries);
        let n = entries.len();
        assert_eq!(lo.len(), 2 * n);
        assert_eq!(hi.len(), 2 * n);
        for (i, e) in entries.iter().enumerate() {
            for d in 0..2 {
                assert_eq!(lo[d * n + i], e.mbr.lo()[d]);
                assert_eq!(hi[d * n + i], e.mbr.hi()[d]);
            }
        }
        // Refill reuses the buffers without stale prefix/suffix data.
        let shorter = &entries[..2];
        load::<2>(&mut lo, &mut hi, shorter);
        assert_eq!(lo.len(), 4);
        assert_eq!(lo, vec![0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn degenerate_bbox_disables_grid() {
        // All entries coincident: every extent is zero, cw would be 0.
        let entries = vec![entry([3.0, 4.0], [3.0, 4.0]); 4];
        assert!(build_grid::<2>(&entries, &entries).is_none());
    }

    #[test]
    fn zero_width_axis_still_quantizes() {
        // Collinear points: the bounding box has a zero-width y axis but
        // a real x extent, so the common cell width is valid and the
        // degenerate dimension simply quantizes to cell 0 everywhere.
        let entries: Vec<SweepEntry<2>> = (0..6)
            .map(|i| entry([i as f64, 5.0], [i as f64, 5.0]))
            .collect();
        let g = build_grid::<2>(&entries, &entries).expect("grid");
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        load::<2>(&mut lo, &mut hi, &entries);
        let (mut qlo, mut qhi) = (Vec::new(), Vec::new());
        quantize(&g, &lo, &hi, entries.len(), &mut qlo, &mut qhi);
        let n = entries.len();
        for i in 0..n {
            assert!(qlo[n + i] == 0 && qhi[n + i] == 0, "y collapses to cell 0");
            assert!(qlo[i] <= qhi[i]);
        }
    }

    /// The integer lower bound of one candidate pair under a grid, in
    /// squared cells — the same arithmetic the kernel's prefilter pass
    /// runs.
    fn int_bound(g: &QuantGrid<2>, a: &Rect<2>, b: &Rect<2>) -> u64 {
        let q = |x: f64, d: usize, up: bool| -> i32 {
            let c = (x - g.origin[d]) / g.cw;
            (if up { c.ceil() } else { c.floor() }) as u16 as i32
        };
        let mut lb = 0u64;
        for d in 0..2 {
            let (alo, ahi) = (q(a.lo()[d], d, false), q(a.hi()[d], d, true));
            let (blo, bhi) = (q(b.lo()[d], d, false), q(b.hi()[d], d, true));
            let gap = (alo - bhi).max(blo - ahi).max(0) as u64;
            lb += gap * gap;
        }
        lb
    }

    // Mix continuous coordinates with snapped ones so coincident and
    // zero-extent rectangles occur often.
    fn coord() -> impl Strategy<Value = f64> {
        prop_oneof![
            3 => -100.0f64..100.0,
            2 => (-10i64..10).prop_map(|v| v as f64 * 7.5),
        ]
    }

    fn extent() -> impl Strategy<Value = f64> {
        prop_oneof![2 => 0.0f64..5.0, 1 => Just(0.0f64)]
    }

    fn arb_rect() -> impl Strategy<Value = Rect<2>> {
        (coord(), coord(), extent(), extent())
            .prop_map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h]))
    }

    proptest! {
        /// Conservativeness of the quantized bound: dequantized it never
        /// exceeds the true `min_dist` (beyond the sub-ulp rounding the
        /// threshold slack absorbs), and — the property the kernel
        /// actually relies on — the rejection test never fires against a
        /// cutoff the pair satisfies.
        #[test]
        fn quantized_bound_is_conservative(
            rects in proptest::collection::vec(arb_rect(), 2..24),
            cutoff_scale in 0.0f64..2.0,
        ) {
            let entries: Vec<SweepEntry<2>> = rects
                .iter()
                .map(|r| SweepEntry { mbr: *r, child: 0, key: r.lo()[0] })
                .collect();
            let (a_side, b_side) = entries.split_at(entries.len() / 2);
            let Some(g) = build_grid::<2>(a_side, b_side) else {
                // Fully degenerate bounding box: prefilter disabled, which
                // is trivially conservative.
                return Ok(());
            };
            for a in a_side {
                for b in b_side {
                    let truth = a.mbr.min_dist(&b.mbr);
                    let lb = int_bound(&g, &a.mbr, &b.mbr);
                    let dequantized = (lb as f64).sqrt() * g.cw;
                    prop_assert!(
                        dequantized <= truth + g.cw * 1e-6,
                        "bound {dequantized} exceeds min_dist {truth}"
                    );
                    // A pair at or below the cutoff must survive the
                    // screen — exactly the kernel's rejection predicate.
                    for cutoff in [truth, truth * cutoff_scale, truth + g.cw] {
                        if truth <= cutoff {
                            let t = reject_threshold(cutoff, g.cw);
                            prop_assert!(
                                (lb as f64) <= t,
                                "prefilter rejected a pair within the cutoff: \
                                 lb {lb}, threshold {t}, dist {truth}, cutoff {cutoff}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn infinite_cutoff_never_rejects() {
        assert_eq!(reject_threshold(f64::INFINITY, 0.25), f64::INFINITY);
        // Huge finite cutoffs overflow the cell conversion to infinity
        // rather than wrapping into a rejecting threshold.
        assert_eq!(reject_threshold(f64::MAX, f64::MIN_POSITIVE), f64::INFINITY);
    }
}
