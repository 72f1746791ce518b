//! Geometry substrate for the AMDJ spatial distance-join library.
//!
//! This crate provides the low-level geometric machinery that the R*-tree
//! ([`amdj_rtree`](https://docs.rs/amdj-rtree)) and the distance-join
//! algorithms ([`amdj_core`](https://docs.rs/amdj-core)) are built on:
//!
//! * [`Point`] — a `D`-dimensional point,
//! * [`Rect`] — a `D`-dimensional axis-aligned rectangle (an MBR), with the
//!   full set of distance metrics used by distance joins (`min_dist`,
//!   `max_dist`, per-axis separation),
//! * [`TotalF64`] — a totally ordered, finite `f64` wrapper used as a
//!   priority-queue key,
//! * [`sweep_index`] — the closed-form *sweeping index* of the paper's
//!   Equation (2) / Table 1, used to pick the plane-sweep axis, plus the
//!   sweep-direction rule of §3.3.
//!
//! Everything is const-generic over the dimension `D`; the paper (and the
//! experiment harness) use `D = 2`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod point;
mod rect;
pub mod sweep_index;
mod total;

pub use point::Point;
pub use rect::Rect;
pub use sweep_index::{
    choose_sweep_axis, choose_sweep_direction, sweep_key, sweeping_index, SweepDirection,
};
pub use total::TotalF64;
